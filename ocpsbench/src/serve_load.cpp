// serve_batched and fleet_churn: open-loop traffic against in-process
// serve::Server / serve::Router instances with default configs.
//
// Requests follow a seeded Poisson schedule; each is timed from its
// scheduled send time, so a stall also delays the requests queued behind
// it. A warm-up slice of the schedule runs first and is excluded from the
// metrics (it is still checked). Every ok answer is checked against an
// in-process optimize_partition on the profile set its `version` names.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "checks.hpp"
#include "locality/footprint_io.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/socket_util.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"
#include "workloads/spec_like.hpp"

namespace ocpsbench {

namespace {

using ocps::json::Value;
using ocps::serve::Client;
using ocps::serve::ProfileSet;
using ocps::serve::Request;

constexpr std::size_t kCapacity = ocps::serve::ServeConfig{}.capacity;
constexpr std::chrono::milliseconds kIoTimeout{5000};
/// Traffic before the measured window: checked, not measured.
constexpr double kWarmupS = 0.5;
/// How long after the schedule ends answers may still arrive. A request
/// that gets none is failed and counted at this latency.
constexpr double kDrainS = 10.0;
/// An ok answer counts toward goodput_rps when it arrives within this
/// many ms of its scheduled send.
constexpr double kLimitMs = 10.0;
/// p50_ms and p99_ms are medians over the measured window's slices of
/// this length of each slice's percentile, so one stalled second moves
/// one slice, not the whole figure.
constexpr double kSliceS = 2.0;
/// Timed set-ups, after one untimed warm-up.
constexpr int kSetupRepeats = 40;
/// Open-loop request rates (req/s): serve_batched at about half the load
/// the default-linger batcher saturates at on a 4-vCPU host, fleet_churn
/// light (see ocpsbench/README.md).
constexpr double kBatchedRate = 500.0;
constexpr double kFleetRate = 150.0;
/// fleet_churn's fleet-wide reload period.
constexpr double kReloadEveryS = 4.0;

struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// The second profile set fleet_churn reloads: the same footprints with
/// access rates scaled by seed-derived factors in [0.5, 2).
std::vector<std::string> derive_profiles(const Options& opt,
                                         const std::vector<std::string>& src,
                                         const std::string& dir) {
  std::filesystem::create_directories(dir);
  Rng rng{opt.seed ^ 0x5eed0f1ee7ULL};
  std::vector<std::string> paths;
  for (const std::string& path : src) {
    ocps::FootprintFile file = ocps::load_footprint_file(path);
    file.access_rate *= 0.5 + 1.5 * rng.uniform();
    std::string out = dir + "/" + file.name + ".fp";
    ocps::save_footprint_file(file, out, 0);
    paths.push_back(out);
  }
  return paths;
}

/// serve::load_profile over every path, one span per file.
std::vector<ocps::ProgramModel> load_models(
    const std::vector<std::string>& paths, Tracer& tracer,
    std::uint64_t parent) {
  std::vector<ocps::ProgramModel> models;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    SpanScope s(tracer, "serve.load_profile", parent, 0, i);
    ocps::Result<ocps::ProgramModel> m =
        ocps::serve::load_profile(paths[i], kCapacity);
    OCPS_CHECK(m.ok(), "cannot load profile: " << m.error().message);
    models.push_back(std::move(m.value()));
  }
  return models;
}

/// Sends one request line on a fresh connection; kIoError on transport
/// failure.
ocps::Result<ocps::serve::Response> call_once(const std::string& endpoint,
                                              const Request& req) {
  ocps::Result<Client> client = Client::connect(endpoint, kIoTimeout);
  if (!client.ok()) return client.error();
  return client.value().call(ocps::serve::encode_request(req),
                             std::chrono::milliseconds(30000));
}

/// Blocks until `health` on `endpoint` answers ok.
void wait_health(const std::string& endpoint) {
  Request req;
  req.id = 1;
  req.op = ocps::serve::Op::kHealth;
  for (int attempt = 0;; ++attempt) {
    ocps::Result<ocps::serve::Response> r = call_once(endpoint, req);
    if (r.ok() && r.value().ok) return;
    OCPS_CHECK(attempt < 200, "no health answer from " << endpoint);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// One scheduled `partition` request and what came back. Kept small: a
/// run holds tens of thousands, and they count in the process's RSS.
struct Call {
  std::int64_t id = 0;
  std::vector<std::string> programs;
  std::string objective;
  bool measured = false;
  Clock::time_point scheduled, sent, connected, done;
  bool answered = false;  ///< a response line arrived
  bool ok = false;        ///< ... and it was not an error response
  PartitionAnswer answer;
};

/// The request line of a call (no newline).
std::string request_line(const Call& c) {
  Request req;
  req.id = c.id;
  req.op = ocps::serve::Op::kPartition;
  req.programs = c.programs;
  req.objective = c.objective;
  return ocps::serve::encode_request(req);
}

/// Records a decoded response on its call.
void settle(Call& c, ocps::serve::Response&& response, Clock::time_point at) {
  c.answered = true;
  c.done = at;
  c.ok = response.ok;
  if (c.ok) c.answer = decode_partition_answer(response.body);
}

/// Poisson arrivals at `rate`/s over [t0, t0 + warmup + seconds), drawn
/// as a fixed count of uniform times (a Poisson process conditioned on
/// its count, so every seed sends the same number of requests): 2-4
/// distinct programs each, objective sum or max.
std::vector<Call> make_schedule(Rng& rng, double rate, Clock::time_point t0,
                                const Options& opt, std::int64_t id_base,
                                const std::vector<std::string>& names) {
  const double span = kWarmupS + opt.seconds;
  std::vector<double> times(
      static_cast<std::size_t>(std::llround(rate * span)));
  for (double& t : times) t = span * rng.uniform();
  std::sort(times.begin(), times.end());
  std::vector<Call> calls;
  for (double t : times) {
    Call c;
    c.id = id_base + static_cast<std::int64_t>(calls.size());
    c.scheduled = after(t0, t);
    c.measured = t >= kWarmupS;
    std::vector<std::string> pool = names;
    std::size_t k = 2 + rng.next() % 3;
    for (std::size_t i = 0; i < k; ++i) {
      std::size_t j = i + rng.next() % (pool.size() - i);
      std::swap(pool[i], pool[j]);
      c.programs.push_back(pool[i]);
    }
    c.objective = (rng.next() & 1) ? "max" : "sum";
    calls.push_back(std::move(c));
  }
  return calls;
}

/// Drives one stream of calls from one thread, each sent at its
/// scheduled time whatever is still in flight. Pipelined: one persistent
/// connection carries every call and answers are matched by id. Fresh:
/// each call opens its own connection (connect_endpoint, the path under
/// serve::Client::connect), the way `ocps query` and scrapers do, and
/// closes it once answered.
void drive(const ocps::serve::Endpoint& ep, std::vector<Call>& calls,
           bool fresh, Clock::time_point hard_stop) {
  struct Conn {
    int fd;
    std::string buffer;
  };
  std::vector<Conn> conns;
  auto open = [&] {
    ocps::Result<int> fd = ocps::serve::connect_endpoint(ep, kIoTimeout);
    return fd.ok() ? fd.value() : -1;
  };
  if (calls.empty()) return;
  if (!fresh) {
    int fd = open();
    if (fd < 0) return;
    conns.push_back({fd, {}});
  }
  const std::int64_t base = calls.front().id;
  std::size_t next = 0, settled = 0;
  std::vector<pollfd> polls;
  char chunk[1 << 16];
  while (settled < calls.size()) {
    Clock::time_point now = Clock::now();
    if (now >= hard_stop) break;
    while (next < calls.size() && calls[next].scheduled <= now) {
      Call& c = calls[next++];
      c.sent = Clock::now();
      int fd = fresh ? open() : conns.front().fd;
      c.connected = fresh ? Clock::now() : c.sent;
      std::string line = request_line(c) + "\n";
      if (fd >= 0 &&
          ocps::serve::send_all(fd, line.data(), line.size(), kIoTimeout)) {
        if (fresh) conns.push_back({fd, {}});
        continue;
      }
      ++settled;  // never sent: failed
      if (fresh && fd >= 0) ::close(fd);
      if (!fresh) next = settled = calls.size();  // the connection broke
    }
    Clock::time_point wake =
        next < calls.size() ? std::min(calls[next].scheduled, hard_stop)
                            : hard_stop;
    auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::max(wake - Clock::now(), Clock::duration::zero()));
    timespec ts{static_cast<time_t>(wait.count() / 1'000'000'000),
                static_cast<long>(wait.count() % 1'000'000'000)};
    polls.clear();
    for (const Conn& conn : conns) polls.push_back({conn.fd, POLLIN, 0});
    if (::ppoll(polls.data(), polls.size(), &ts, nullptr) <= 0) continue;
    const Clock::time_point got = Clock::now();
    for (std::size_t i = polls.size(); i-- > 0;) {
      if (polls[i].revents == 0) continue;
      Conn& conn = conns[i];
      bool closed = false;
      for (;;) {
        ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR) continue;
        if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK))
          closed = true;
        if (n <= 0) break;
        conn.buffer.append(chunk, static_cast<std::size_t>(n));
      }
      std::size_t start = 0, nl;
      bool answered = false;
      while ((nl = conn.buffer.find('\n', start)) != std::string::npos) {
        ocps::Result<ocps::serve::Response> r = ocps::serve::parse_response(
            conn.buffer.substr(start, nl - start));
        start = nl + 1;
        if (!r.ok()) continue;
        std::int64_t idx = r.value().id - base;
        if (idx < 0 || idx >= static_cast<std::int64_t>(calls.size()) ||
            calls[static_cast<std::size_t>(idx)].answered)
          continue;
        settle(calls[static_cast<std::size_t>(idx)], std::move(r.value()),
               got);
        ++settled;
        answered = true;
      }
      conn.buffer.erase(0, start);
      if (closed || (fresh && answered)) {
        if (fresh && !answered) ++settled;  // closed without an answer
        ::close(conn.fd);
        conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
        if (!fresh) next = settled = calls.size();
      }
    }
  }
  for (const Conn& conn : conns) ::close(conn.fd);
}

/// Profile sets by version: the daemons start at version 1 on set A and
/// every reload alternates B, A, B, ... so odd versions are A.
struct VersionedSets {
  std::shared_ptr<const ProfileSet> a, b;
  std::uint64_t max_version = 1;
  const ProfileSet* at(double version) const {
    if (version < 1 || version > static_cast<double>(max_version) ||
        version != std::floor(version))
      return nullptr;
    return static_cast<std::uint64_t>(version) % 2 == 1 ? a.get() : b.get();
  }
};

/// Checks every answer, then reports the request-level metrics over the
/// measured window starting at `window`: p50_ms and p99_ms (medians over
/// the window's slices of kSliceS seconds of each slice's
/// percentile), goodput_rps and gen.late_ms.p99.
void account(const Options& opt, std::vector<std::vector<Call>>& streams,
             const VersionedSets& sets, Clock::time_point window,
             Report& report, Tracer& tracer) {
  std::vector<Call*> calls;
  for (auto& s : streams)
    for (Call& c : s) calls.push_back(&c);

  if (opt.fault == "alloc") {
    // Test seam: perturb the first ok answer's alloc by one unit.
    for (Call* c : calls)
      if (c->ok && !c->answer.alloc.empty()) {
        c->answer.alloc[0] += 1.0;
        break;
      }
  }

  // Expected optima, one in-process solve per distinct question.
  auto key_of = [&](const Call& c) {
    const ProfileSet* set = sets.at(c.answer.version);
    std::string key = set == sets.a.get() ? "A" : "B";
    std::vector<std::string> sorted = c.programs;
    std::sort(sorted.begin(), sorted.end());
    for (const std::string& p : sorted) key += "," + p;
    return key + ":" + c.objective;
  };
  std::map<std::string, double> expected;
  std::vector<const Call*> questions;
  for (const Call* c : calls)
    if (c->ok && sets.at(c->answer.version) != nullptr &&
        expected.emplace(key_of(*c), 0.0).second)
      questions.push_back(c);
  std::vector<double> optimum(questions.size());
  ocps::parallel_for(0, questions.size(), [&](std::size_t i) {
    const Call& c = *questions[i];
    optimum[i] = expected_objective(
        *sets.at(c.answer.version), c.programs,
        c.objective, kCapacity);
  });
  for (std::size_t i = 0; i < questions.size(); ++i)
    expected[key_of(*questions[i])] = optimum[i];

  const double drain_ms = (opt.seconds + kDrainS) * 1e3;
  const std::size_t slices = std::max<std::size_t>(
      1, static_cast<std::size_t>(opt.seconds / kSliceS + 1e-9));
  std::vector<std::vector<double>> slice_ms(slices);
  std::vector<double> late_ms;
  std::size_t measured = 0;
  std::size_t good = 0;
  for (Call* c : calls) {
    ++report.attempted;
    bool ok = c->ok;
    if (ok) {
      const ProfileSet* set = sets.at(c->answer.version);
      std::string why =
          set == nullptr
              ? "answer names unknown profile-set version"
              : check_partition_answer(c->answer, *set, c->programs,
                                       c->objective, kCapacity,
                                       expected[key_of(*c)]);
      if (!why.empty()) {
        ok = false;
        report.violation("request " + std::to_string(c->id) + ": " + why);
      }
    }
    if (!ok) ++report.failed;
    if (!c->measured) continue;
    double ms = ok ? ms_between(c->scheduled, c->done) : drain_ms;
    std::size_t slice = static_cast<std::size_t>(
        seconds_between(window, c->scheduled) / opt.seconds *
        static_cast<double>(slices));
    slice_ms[std::min(slice, slices - 1)].push_back(ms);
    ++measured;
    if (ok && ms <= kLimitMs) ++good;
    if (c->sent != Clock::time_point{})
      late_ms.push_back(ms_between(c->scheduled, c->sent));
    if (tracer.enabled() && c->answered) {
      Span s{"serve.request", tracer.new_id(), 0,
             static_cast<std::uint64_t>(c->id), c->programs.size(),
             tracer.to_ns(c->sent), tracer.to_ns(c->done)};
      if (c->connected > c->sent)
        tracer.record({"client.connect", tracer.new_id(), s.id, s.request, 0,
                       tracer.to_ns(c->sent), tracer.to_ns(c->connected)});
      tracer.record(s);
    }
  }
  std::vector<double> p50s, p99s;
  for (const std::vector<double>& ms : slice_ms) {
    p50s.push_back(quantile(ms, 0.5));
    p99s.push_back(quantile(ms, 0.99));
  }
  report.add("p50_ms", median(p50s), "ms");
  report.add("p99_ms", median(p99s), "ms");
  report.add("goodput_rps", static_cast<double>(good) / opt.seconds, "1/s");
  report.add("gen.late_ms.p99", quantile(late_ms, 0.99), "ms");
  report.info.set("measured_requests", Value(measured));
  report.info.set("latency_slices", Value(slices));
}

/// Quantile of histogram `name` in a `metrics` answer, merged over every
/// histogram whose name starts with `name` (the router keeps one per
/// backend), interpolated by the library's own bucket rule.
double scraped_quantile(const Value& body, const std::string& name,
                        double q) {
  const Value* metrics = body.find("metrics");
  const Value* hists = metrics ? metrics->find("histograms") : nullptr;
  if (hists == nullptr || !hists->is_object()) return 0.0;
  std::map<std::size_t, std::uint64_t> buckets;
  ocps::obs::HistogramSnapshot snap;
  for (const auto& [hname, h] : hists->as_object()) {
    if (hname.rfind(name, 0) != 0 || hname.find(".window") != std::string::npos)
      continue;
    snap.count += static_cast<std::uint64_t>(h.get_number("count", 0));
    for (const Value& b : h.find("buckets")->as_array()) {
      double lo = b.get_number("lo", 0);
      std::size_t idx = lo < 1.0 ? 0 : static_cast<std::size_t>(
                                           std::llround(std::log2(lo))) + 1;
      buckets[idx] += static_cast<std::uint64_t>(b.get_number("count", 0));
    }
  }
  for (const auto& [i, n] : buckets) snap.buckets.emplace_back(i, n);
  return ocps::obs::histogram_quantile(snap, q);
}

/// Mean of the histograms `scraped_quantile` would merge, from their
/// exact sums and counts.
double scraped_mean(const Value& body, const std::string& name) {
  const Value* metrics = body.find("metrics");
  const Value* hists = metrics ? metrics->find("histograms") : nullptr;
  if (hists == nullptr || !hists->is_object()) return 0.0;
  double sum = 0.0, count = 0.0;
  for (const auto& [hname, h] : hists->as_object()) {
    if (hname.rfind(name, 0) != 0 || hname.find(".window") != std::string::npos)
      continue;
    sum += h.get_number("sum", 0);
    count += h.get_number("count", 0);
  }
  return count > 0 ? sum / count : 0.0;
}

/// Scrapes `metrics` from a daemon and reports the serve.stage.* layer
/// percentiles. Returns the answer body for further reads.
Value add_stage_metrics(const std::string& endpoint, Report& report) {
  Request req;
  req.id = 2;
  req.op = ocps::serve::Op::kMetrics;
  ocps::Result<ocps::serve::Response> r = call_once(endpoint, req);
  if (!r.ok() || !r.value().ok) {
    report.violation("metrics scrape failed on " + endpoint);
    return Value();
  }
  const Value& body = r.value().body;
  const struct {
    const char* stage;
    double q;
    const char* metric;
  } kStages[] = {
      {"queue_wait", 0.5, "serve.stage.queue_wait_ms.p50"},
      {"queue_wait", 0.99, "serve.stage.queue_wait_ms.p99"},
      {"batch_linger", 0.5, "serve.stage.batch_linger_ms.p50"},
      {"solve", 0.5, "serve.stage.solve_ms.p50"},
      {"solve", 0.99, "serve.stage.solve_ms.p99"},
      {"serialize", 0.5, "serve.stage.serialize_ms.p50"},
      {"network", 0.5, "serve.stage.network_ms.p50"},
  };
  for (const auto& s : kStages)
    report.add(s.metric,
               scraped_quantile(body, std::string("serve.stage.") + s.stage,
                                s.q),
               "ms");
  // The histograms' lowest bucket spans [0, 1) ms, so sub-ms quantiles
  // are not resolved; their exact sums give per-stage means that are.
  for (const char* stage :
       {"queue_wait", "batch_linger", "solve", "serialize", "network"})
    report.add(std::string("serve.stage.") + stage + "_ms.mean",
               scraped_mean(body, std::string("serve.stage.") + stage), "ms");
  return body;
}

/// Load comes from at most nproc generator threads (and connections).
std::size_t generator_width() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::vector<std::string> suite_names() {
  std::vector<std::string> names;
  for (const ocps::WorkloadSpec& spec : ocps::spec2006_suite())
    names.push_back(spec.name);
  return names;
}

void add_setup_metrics(const Options& opt, const std::vector<double>& setup_s,
                       const Tracer& tracer, Report& report) {
  report.add("setup_s", median(setup_s), "s");
  if (!opt.traced) return;
  std::vector<double> load_s, start_s;
  bool warmup = true;  // the first set-up is untimed
  for (const Span& root : tracer.spans())
    if (std::string_view(root.name) == "setup" &&
        !std::exchange(warmup, false)) {
      load_s.push_back(tracer.child_seconds("serve.load_profile", root.id));
      start_s.push_back(tracer.child_seconds("serve.start", root.id));
    }
  report.add("serve.load_profile_s", median(load_s), "s");
  report.add("serve.start_s", median(start_s), "s");
}

double mean_batch(std::uint64_t answered, std::uint64_t batches) {
  return batches == 0 ? 0.0
                      : static_cast<double>(answered) /
                            static_cast<double>(batches);
}

}  // namespace

Report run_serve_batched(const Options& opt) {
  Report report;
  Tracer tracer(opt.traced);
  const std::vector<std::string> paths = committed_profiles();

  // Set-up, repeated: load profiles, build the daemon (profile set),
  // start() it and wait for the first health answer. Repeat 0 is an
  // untimed warm-up; the last repeat's daemon serves the run.
  std::unique_ptr<ocps::serve::Server> server;
  std::string endpoint;
  std::vector<double> setup_s;
  for (int r = 0; r <= kSetupRepeats; ++r) {
    if (server) server->stop();
    server.reset();
    endpoint = opt.out_dir + "/s" + std::to_string(r) + ".sock";
    Clock::time_point t0 = Clock::now();
    SpanScope setup(tracer, "setup");
    std::vector<ocps::ProgramModel> models =
        load_models(paths, tracer, setup.id());
    ocps::serve::ServeConfig config;
    config.socket_path = endpoint;
    server = std::make_unique<ocps::serve::Server>(config, std::move(models));
    {
      SpanScope s(tracer, "serve.start", setup.id());
      ocps::Result<bool> started = server->start();
      OCPS_CHECK(started.ok(), "server start: " << started.error().message);
      wait_health(endpoint);
    }
    if (r > 0) setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  add_setup_metrics(opt, setup_s, tracer, report);

  VersionedSets sets;
  sets.a = ocps::serve::make_profile_set(load_models(paths, tracer, 0),
                                         kCapacity, 1);

  const std::size_t width = generator_width();
  const Clock::time_point t0 = after(Clock::now(), 0.05);
  Rng rng{opt.seed * 0x2545f4914f6cdd1dULL + 1};
  std::vector<std::vector<Call>> streams;
  for (std::size_t i = 0; i < width; ++i)
    streams.push_back(make_schedule(
        rng, kBatchedRate / static_cast<double>(width), t0, opt,
        static_cast<std::int64_t>((i + 1) * 100'000'000), suite_names()));
  const Clock::time_point window = after(t0, kWarmupS);
  const Clock::time_point hard_stop =
      after(t0, kWarmupS + opt.seconds + kDrainS);
  const ocps::serve::Endpoint ep =
      ocps::serve::parse_endpoint(endpoint).value();
  std::vector<std::thread> generators;
  for (auto& s : streams)
    generators.emplace_back(drive, std::cref(ep), std::ref(s), false, hard_stop);
  std::this_thread::sleep_until(window);
  if (opt.traced) ocps::obs::reset_metrics();
  const auto before = server->counters();
  for (std::thread& t : generators) t.join();
  const auto counters = server->counters();

  if (opt.traced) {
    add_stage_metrics(endpoint, report);
    report.add("serve.mean_batch",
               mean_batch(counters.answered - before.answered,
                          counters.batches - before.batches),
               "count");
  }
  add_proc_metrics(report);
  server->stop();
  server.reset();

  account(opt, streams, sets, window, report, tracer);
  report.info.set("connections", Value(width));
  report.info.set("batches", Value(static_cast<double>(counters.batches)));
  report.info.set("shed", Value(static_cast<double>(counters.shed)));
  if (opt.traced)
    tracer.write_chrome(opt.out_dir + "/serve_batched.trace.json");
  return report;
}

Report run_fleet_churn(const Options& opt) {
  Report report;
  Tracer tracer(opt.traced);
  const std::vector<std::string> paths_a = committed_profiles();
  const std::vector<std::string> paths_b =
      derive_profiles(opt, paths_a, opt.out_dir + "/profiles_b");

  struct Fleet {
    std::unique_ptr<ocps::serve::Server> backends[2];
    std::unique_ptr<ocps::serve::Router> router;
    void stop() {
      if (router) router->stop();
      for (auto& b : backends)
        if (b) b->stop();
    }
  };
  Fleet fleet;
  std::string front, backend0;
  std::vector<double> setup_s;
  for (int r = 0; r <= kSetupRepeats; ++r) {
    fleet.stop();
    fleet = Fleet{};
    const std::string prefix = opt.out_dir + "/f" + std::to_string(r);
    front = prefix + "-router.sock";
    Clock::time_point t0 = Clock::now();
    SpanScope setup(tracer, "setup");
    std::vector<ocps::ProgramModel> models =
        load_models(paths_a, tracer, setup.id());
    ocps::serve::RouterConfig router_config;
    router_config.socket_path = front;
    for (int b = 0; b < 2; ++b) {
      ocps::serve::ServeConfig config;
      config.socket_path = prefix + "-b" + std::to_string(b) + ".sock";
      router_config.backends.push_back(config.socket_path);
      fleet.backends[b] =
          std::make_unique<ocps::serve::Server>(config, models);
    }
    backend0 = router_config.backends[0];
    fleet.router = std::make_unique<ocps::serve::Router>(router_config);
    {
      SpanScope s(tracer, "serve.start", setup.id());
      for (auto& b : fleet.backends) {
        ocps::Result<bool> started = b->start();
        OCPS_CHECK(started.ok(), "backend start: " << started.error().message);
      }
      ocps::Result<bool> started = fleet.router->start();
      OCPS_CHECK(started.ok(), "router start: " << started.error().message);
      wait_health(front);
    }
    if (r > 0) setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  add_setup_metrics(opt, setup_s, tracer, report);

  VersionedSets sets;
  sets.a = ocps::serve::make_profile_set(load_models(paths_a, tracer, 0),
                                         kCapacity, 1);
  sets.b = ocps::serve::make_profile_set(load_models(paths_b, tracer, 0),
                                         kCapacity, 2);

  // Request generators plus one operator thread: at most nproc threads.
  const std::size_t width = std::max<std::size_t>(1, generator_width() - 1);
  const Clock::time_point t0 = after(Clock::now(), 0.05);
  Rng rng{opt.seed * 0x2545f4914f6cdd1dULL + 2};
  std::vector<std::vector<Call>> streams;
  for (std::size_t i = 0; i < width; ++i)
    streams.push_back(make_schedule(
        rng, kFleetRate / static_cast<double>(width), t0, opt,
        static_cast<std::int64_t>((i + 1) * 100'000'000), suite_names()));
  const Clock::time_point window = after(t0, kWarmupS);
  const Clock::time_point window_end = after(window, opt.seconds);
  const Clock::time_point hard_stop = after(window_end, kDrainS);
  const ocps::serve::Endpoint ep = ocps::serve::parse_endpoint(front).value();
  std::vector<std::thread> generators;
  for (auto& s : streams)
    generators.emplace_back(drive, std::cref(ep), std::ref(s), true, hard_stop);

  // Operator: every kReloadEveryS a fleet-wide reload through the
  // router, alternating set B and set A, then a health scrape.
  std::vector<double> reload_ms;
  std::uint64_t operator_ops = 0, operator_failed = 0;
  std::thread operator_thread([&] {
    for (int k = 1;; ++k) {
      Clock::time_point at = after(window, k * kReloadEveryS);
      if (at >= window_end) break;
      std::this_thread::sleep_until(at);
      Request reload;
      reload.id = k;
      reload.op = ocps::serve::Op::kReload;
      reload.paths = k % 2 == 1 ? paths_b : paths_a;
      Clock::time_point sent = Clock::now();
      bool reloaded = false;
      {
        SpanScope s(tracer, "serve.reload", 0, 0,
                    static_cast<std::uint64_t>(k));
        ocps::Result<ocps::serve::Response> r = call_once(front, reload);
        reloaded = r.ok() && r.value().ok;
      }
      reload_ms.push_back(ms_between(sent, Clock::now()));
      ++operator_ops;
      if (reloaded)
        sets.max_version = static_cast<std::uint64_t>(k) + 1;
      else
        ++operator_failed;
      Request health;
      health.id = 1000 + k;
      health.op = ocps::serve::Op::kHealth;
      ocps::Result<ocps::serve::Response> h = call_once(front, health);
      ++operator_ops;
      if (!h.ok() || !h.value().ok) ++operator_failed;
    }
  });

  std::this_thread::sleep_until(window);
  if (opt.traced) ocps::obs::reset_metrics();
  const auto router_before = fleet.router->counters();
  std::uint64_t answered_before = 0, batches_before = 0;
  for (auto& b : fleet.backends) {
    answered_before += b->counters().answered;
    batches_before += b->counters().batches;
  }
  for (std::thread& t : generators) t.join();
  operator_thread.join();

  if (opt.traced) {
    Value body = add_stage_metrics(backend0, report);
    std::uint64_t answered = 0, batches = 0;
    for (auto& b : fleet.backends) {
      answered += b->counters().answered;
      batches += b->counters().batches;
    }
    report.add("serve.mean_batch",
               mean_batch(answered - answered_before,
                          batches - batches_before),
               "count");
    // Router hop: what the client saw on an open connection, minus what
    // the router measured for the backend attempt.
    std::vector<double> request_ms, connect_ms;
    for (const auto& s : streams)
      for (const Call& c : s)
        if (c.measured && c.answered) {
          request_ms.push_back(ms_between(c.connected, c.done));
          connect_ms.push_back(ms_between(c.sent, c.connected));
        }
    double sum = 0.0;
    for (double ms : request_ms) sum += ms;
    report.add("router.hop_ms.mean",
               (request_ms.empty() ? 0.0 : sum / request_ms.size()) -
                   scraped_mean(body, "serve.router.backend_latency."),
               "ms");
    report.add("router.failovers",
               static_cast<double>(fleet.router->counters().failovers -
                                   router_before.failovers),
               "count");
    report.add("client.connect_ms.p50", median(connect_ms), "ms");
  }
  add_proc_metrics(report);
  fleet.stop();

  account(opt, streams, sets, window, report, tracer);
  report.attempted += operator_ops;
  report.failed += operator_failed;
  if (operator_failed > 0)
    report.info.set("operator_failures", Value(operator_failed));
  report.add("serve.reload_ms.p50", median(reload_ms), "ms");
  report.info.set("reloads", Value(reload_ms.size()));
  report.info.set("request_threads", Value(width));
  if (opt.traced)
    tracer.write_chrome(opt.out_dir + "/fleet_churn.trace.json");
  return report;
}

}  // namespace ocpsbench
