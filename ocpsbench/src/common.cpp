#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "workloads/spec_like.hpp"

namespace ocpsbench {

void Report::violation(const std::string& why) {
  correct = false;
  if (violations.size() < 20) violations.push_back(why);
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

std::uint64_t Tracer::to_ns(Clock::time_point t) const {
  return t <= epoch_ ? 0
                     : static_cast<std::uint64_t>(
                           std::chrono::duration_cast<std::chrono::nanoseconds>(
                               t - epoch_)
                               .count());
}

void Tracer::record(const Span& span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double Tracer::child_seconds(const char* name, std::uint64_t parent) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_)
    if (s.parent == parent && std::string_view(s.name) == name)
      total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  return total;
}

void Tracer::write_chrome(const std::string& path) const {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream os(path, std::ios::trunc);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans()) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << (s.request != 0 ? 2 : 1) << ",\"ts\":"
       << static_cast<double>(s.start_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request << ",\"arg\":" << s.arg << "}}";
  }
  os << "]}\n";
}

SpanScope::SpanScope(Tracer& tracer, const char* name, std::uint64_t parent,
                     std::uint64_t request, std::uint64_t arg)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  span_.name = name;
  span_.id = tracer_.new_id();
  span_.parent = parent;
  span_.request = request;
  span_.arg = arg;
  span_.start_ns = tracer_.now_ns();
}

SpanScope::~SpanScope() {
  if (!tracer_.enabled()) return;
  span_.end_ns = tracer_.now_ns();
  tracer_.record(span_);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

/// Value in kB of a "Key:   123 kB" line of /proc/self/status.
double status_kb(const std::string& status, const std::string& key) {
  std::size_t at = status.find(key + ":");
  if (at == std::string::npos) return 0.0;
  std::istringstream is(status.substr(at + key.size() + 1));
  double v = 0.0;
  is >> v;
  return v;
}

}  // namespace

ProcStats read_proc_stats() {
  ProcStats out;
  std::ifstream status_file("/proc/self/status");
  std::stringstream status;
  status << status_file.rdbuf();
  out.peak_rss_mb = status_kb(status.str(), "VmHWM") / 1024.0;
  out.vm_mb = status_kb(status.str(), "VmSize") / 1024.0;
  out.threads = status_kb(status.str(), "Threads");
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) out.maps += 1.0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/fd", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec))
    out.fds += 1.0;
  return out;
}

void add_proc_metrics(Report& report) {
  ProcStats p = read_proc_stats();
  report.add("peak_rss_mb", p.peak_rss_mb, "MB");
  report.add("proc.threads_end", p.threads, "count");
  report.add("proc.maps_end", p.maps, "count");
  report.add("proc.vm_mb_end", p.vm_mb, "MB");
  report.add("proc.fds_end", p.fds, "count");
}

std::vector<std::string> committed_profiles() {
  std::vector<std::string> paths;
  for (const ocps::WorkloadSpec& spec : ocps::spec2006_suite())
    paths.push_back("ocps_cache/" + spec.name + "_n400000.fp");
  return paths;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  if (seed == 0) return 0;
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace ocpsbench
