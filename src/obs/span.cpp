#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <ostream>
#include <vector>

#include "obs/obs.hpp"

namespace ocps::obs {

namespace {

std::uint64_t steady_now_raw() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t trace_epoch() {
  static const std::uint64_t epoch = steady_now_raw();
  return epoch;
}

// One of the process's kSpanRings event rings. Threads pick a ring by
// their dense thread index, so with up to kSpanRings live threads each
// ring has a single writer; a tiny spinlock keeps pushes from threads
// that share a ring, and exports from another thread, safe.
// A full ring overwrites its oldest event; obs.spans_dropped counts every
// such overwrite so a truncated trace export is detectable from metrics.
Counter& spans_dropped_counter() {
  static Counter& c = counter("obs.spans_dropped");
  return c;
}

struct SpanRing {
  std::vector<TraceEvent> events;  // capacity kRingCapacity, ring storage
  std::size_t next = 0;            // ring write position
  std::atomic_flag lock = ATOMIC_FLAG_INIT;

  void push(const TraceEvent& e) {
    bool overwrote = false;
    while (lock.test_and_set(std::memory_order_acquire)) {
    }
    if (events.size() < kRingCapacity) {
      if (events.empty()) events.reserve(kRingCapacity);  // one block
      events.push_back(e);
    } else {
      events[next] = e;
      overwrote = true;
    }
    next = (next + 1) % kRingCapacity;
    lock.clear(std::memory_order_release);
    if (overwrote) spans_dropped_counter().add(1);
  }

  void snapshot(std::vector<TraceEvent>* out) {
    while (lock.test_and_set(std::memory_order_acquire)) {
    }
    // Emit in logical (oldest-to-newest) order, not rotated storage
    // order, so the stable sort in trace_events() keeps push order for
    // events whose coarse-clock timestamps tie.
    if (events.size() < kRingCapacity) {
      out->insert(out->end(), events.begin(), events.end());
    } else {
      out->insert(out->end(), events.begin() + static_cast<std::ptrdiff_t>(next),
                  events.end());
      out->insert(out->end(), events.begin(),
                  events.begin() + static_cast<std::ptrdiff_t>(next));
    }
    lock.clear(std::memory_order_release);
  }

  void clear() {
    while (lock.test_and_set(std::memory_order_acquire)) {
    }
    events.clear();
    next = 0;
    lock.clear(std::memory_order_release);
  }
};

std::array<SpanRing, kSpanRings>& rings() {
  spans_dropped_counter();  // register eagerly: scrapes always show it
  static auto* r = new std::array<SpanRing, kSpanRings>();  // never destroyed
  return *r;
}

// Stamps the calling thread's tid (dense index + 1, so 0 never names a
// thread) and files the event in that thread's ring.
void record(TraceEvent e) {
  const std::uint32_t index = detail::thread_index();
  e.tid = index + 1;
  rings()[index % kSpanRings].push(e);
}

void escape(std::ostream& os, const char* s) {
  for (; *s; ++s) {
    if (*s == '"' || *s == '\\') os << '\\';
    os << *s;
  }
}

}  // namespace

std::uint64_t now_ns() {
  // Latch the epoch before reading the clock: the first call must not
  // read a time earlier than the epoch it then sets.
  const std::uint64_t epoch = trace_epoch();
  return steady_now_raw() - epoch;
}

ScopedSpan::ScopedSpan(const char* name, const char* cat) noexcept
    : name_(name), cat_(cat), start_ns_(now_ns()) {}

ScopedSpan::~ScopedSpan() {
  TraceEvent e;
  e.name = name_;
  e.cat = cat_;
  e.ts_ns = start_ns_;
  e.dur_ns = now_ns() - start_ns_;
  e.arg_name = arg_name_;
  e.arg = arg_;
  e.trace_id = trace_id_;
  e.instant = false;
  record(e);
}

void ScopedSpan::set_arg(const char* key, std::uint64_t value) noexcept {
  arg_name_ = key;
  arg_ = value;
}

void ScopedSpan::set_trace_id(std::uint64_t id) noexcept { trace_id_ = id; }

std::uint64_t ScopedSpan::elapsed_ns() const noexcept {
  return now_ns() - start_ns_;
}

void instant_event(const char* name, const char* cat, const char* arg_name,
                   std::uint64_t arg, std::uint64_t trace_id) noexcept {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_ns = now_ns();
  e.dur_ns = 0;
  e.arg_name = arg_name;
  e.arg = arg;
  e.trace_id = trace_id;
  e.instant = true;
  record(e);
}

std::vector<TraceEvent> trace_events() {
  std::vector<TraceEvent> out;
  for (SpanRing& r : rings()) r.snapshot(&out);
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

std::vector<TraceEvent> trace_events_for(std::uint64_t trace_id) {
  std::vector<TraceEvent> out;
  if (trace_id == 0) return out;
  for (const TraceEvent& e : trace_events())
    if (e.trace_id == trace_id) out.push_back(e);
  return out;
}

void clear_trace_events() {
  for (SpanRing& r : rings()) r.clear();
}

void write_chrome_trace(std::ostream& os) {
  std::vector<TraceEvent> events = trace_events();
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"";
    escape(os, e.name);
    os << "\",\"cat\":\"";
    escape(os, e.cat ? e.cat : "ocps");
    os << "\",\"ph\":\"" << (e.instant ? 'i' : 'X') << "\",\"pid\":1"
       << ",\"tid\":" << e.tid << ",\"ts\":"
       << static_cast<double>(e.ts_ns) / 1000.0;
    if (e.instant) {
      os << ",\"s\":\"t\"";
    } else {
      os << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1000.0;
    }
    if (e.trace_id != 0) {
      // Legacy flow-event linkage: viewers draw one connected tree for
      // all events sharing a bind_id, across threads.
      os << ",\"bind_id\":" << e.trace_id
         << ",\"flow_in\":true,\"flow_out\":true";
    }
    if (e.arg_name || e.trace_id != 0) {
      os << ",\"args\":{";
      bool afirst = true;
      if (e.arg_name) {
        os << '"';
        escape(os, e.arg_name);
        os << "\":" << e.arg;
        afirst = false;
      }
      if (e.trace_id != 0) {
        if (!afirst) os << ',';
        os << "\"trace_id\":" << e.trace_id;
      }
      os << '}';
    }
    os << '}';
  }
  os << "]}";
}

}  // namespace ocps::obs
