#include "runtime/fault_injection.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace ocps {

namespace {

// Distinguishes the independent per-(epoch, program) decisions.
enum Kind : std::uint64_t {
  kNan = 1,
  kSpike = 2,
  kTruncate = 3,
  kDrop = 4,
  kDpFail = 5,
  kPosition = 6,  ///< where inside the curve a fault lands
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a ^ (b * 0x9E3779B97F4A7C15ULL);
  return splitmix64(state);
}

}  // namespace

FaultInjectionConfig FaultInjectionConfig::uniform(double r,
                                                   std::uint64_t seed) {
  FaultInjectionConfig c;
  c.nan_rate = c.spike_rate = c.truncate_rate = c.drop_rate = c.dp_fail_rate =
      r;
  c.seed = seed;
  return c;
}

FaultInjector::FaultInjector(const FaultInjectionConfig& config)
    : config_(config) {
  auto valid_rate = [](double r) { return r >= 0.0 && r <= 1.0; };
  OCPS_CHECK(valid_rate(config.nan_rate) && valid_rate(config.spike_rate) &&
                 valid_rate(config.truncate_rate) &&
                 valid_rate(config.drop_rate) &&
                 valid_rate(config.dp_fail_rate),
             "fault rates must be in [0, 1]");
}

double FaultInjector::draw(std::uint64_t kind, std::size_t epoch,
                           std::size_t program) const {
  std::uint64_t h = mix(mix(config_.seed, kind),
                        mix(static_cast<std::uint64_t>(epoch) << 20,
                            static_cast<std::uint64_t>(program)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

void FaultInjector::corrupt_mrc(std::size_t epoch, std::size_t program,
                                std::vector<double>& ratios) {
  if (ratios.empty()) return;
  const std::size_t n = ratios.size();
  // Position draws reuse one hash, sliced, so each kind stays a pure
  // function of (seed, epoch, program).
  std::uint64_t pos = mix(mix(config_.seed, kPosition),
                          mix(static_cast<std::uint64_t>(epoch) << 20,
                              static_cast<std::uint64_t>(program)));

  if (config_.nan_rate > 0.0 && draw(kNan, epoch, program) < config_.nan_rate) {
    // A run of NaNs somewhere inside the curve.
    std::size_t start = static_cast<std::size_t>(pos % n);
    std::size_t len = 1 + static_cast<std::size_t>((pos >> 17) % (n / 4 + 1));
    for (std::size_t i = start; i < std::min(n, start + len); ++i)
      ratios[i] = std::numeric_limits<double>::quiet_NaN();
    ++nan_;
  }
  if (config_.spike_rate > 0.0 &&
      draw(kSpike, epoch, program) < config_.spike_rate) {
    // A spike well above 1.0: breaks both range and monotonicity.
    std::size_t at = static_cast<std::size_t>((pos >> 7) % n);
    ratios[at] = 2.0 + static_cast<double>((pos >> 40) % 1000) / 100.0;
    ++spikes_;
  }
  if (config_.truncate_rate > 0.0 &&
      draw(kTruncate, epoch, program) < config_.truncate_rate) {
    // The estimate stops early; keep at least one entry.
    std::size_t keep = 1 + static_cast<std::size_t>((pos >> 23) % n);
    if (keep < n) {
      ratios.resize(keep);
      ++truncations_;
    }
  }
}

bool FaultInjector::drop_estimate(std::size_t epoch, std::size_t program) {
  if (config_.drop_rate > 0.0 &&
      draw(kDrop, epoch, program) < config_.drop_rate) {
    ++drops_;
    return true;
  }
  return false;
}

bool FaultInjector::fail_dp(std::size_t epoch) {
  if (config_.dp_fail_rate > 0.0 &&
      draw(kDpFail, epoch, /*program=*/0) < config_.dp_fail_rate) {
    ++dp_failures_;
    return true;
  }
  return false;
}

ControllerHooks FaultInjector::hooks() {
  ControllerHooks h;
  h.corrupt_mrc = [this](std::size_t epoch, std::size_t program,
                         std::vector<double>& ratios) {
    corrupt_mrc(epoch, program, ratios);
  };
  h.drop_estimate = [this](std::size_t epoch, std::size_t program) {
    return drop_estimate(epoch, program);
  };
  h.fail_dp = [this](std::size_t epoch) { return fail_dp(epoch); };
  return h;
}

// ---------------------------------------------------------------------------
// Socket-layer faults.

namespace {

// Kind tags for the network injector, disjoint from the controller's.
enum NetKind : std::uint64_t {
  kAcceptFail = 101,
  kReset = 102,
  kTrickle = 103,
  kStall = 104,
};

}  // namespace

NetFaultConfig NetFaultConfig::uniform(double r, std::uint64_t seed) {
  NetFaultConfig c;
  c.accept_fail_rate = c.reset_rate = c.trickle_rate = c.stall_rate = r;
  c.seed = seed;
  return c;
}

NetFaultInjector::NetFaultInjector(const NetFaultConfig& config)
    : config_(config) {
  auto valid_rate = [](double r) { return r >= 0.0 && r <= 1.0; };
  OCPS_CHECK(valid_rate(config.accept_fail_rate) &&
                 valid_rate(config.reset_rate) &&
                 valid_rate(config.trickle_rate) &&
                 valid_rate(config.stall_rate),
             "net fault rates must be in [0, 1]");
  OCPS_CHECK(config.stall.count() >= 0, "net fault stall must be >= 0");
}

double NetFaultInjector::draw(std::uint64_t kind, std::uint64_t seq) const {
  std::uint64_t h = mix(mix(config_.seed, kind), seq + 1);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool NetFaultInjector::fail_accept() const {
  std::uint64_t seq = accept_seq_.fetch_add(1, std::memory_order_relaxed);
  if (config_.accept_fail_rate > 0.0 &&
      draw(kAcceptFail, seq) < config_.accept_fail_rate) {
    accept_failures_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

NetFaultInjector::WriteFault NetFaultInjector::write_fault() const {
  std::uint64_t seq = write_seq_.fetch_add(1, std::memory_order_relaxed);
  if (config_.reset_rate > 0.0 && draw(kReset, seq) < config_.reset_rate) {
    resets_.fetch_add(1, std::memory_order_relaxed);
    return WriteFault::kReset;
  }
  if (config_.trickle_rate > 0.0 &&
      draw(kTrickle, seq) < config_.trickle_rate) {
    trickles_.fetch_add(1, std::memory_order_relaxed);
    return WriteFault::kTrickle;
  }
  if (config_.stall_rate > 0.0 && draw(kStall, seq) < config_.stall_rate) {
    stalls_.fetch_add(1, std::memory_order_relaxed);
    return WriteFault::kStall;
  }
  return WriteFault::kNone;
}

}  // namespace ocps
