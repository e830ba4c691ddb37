// Deterministic fault injection for the online controller.
//
// Reproducing a production failure ("the profiler sent us garbage at
// 3am") requires faults that are a pure function of (seed, epoch,
// program) — not of call order — so a hardened run and a baseline run
// given the same injector config see *exactly* the same faults. Every
// decision here hashes (seed, epoch, program, kind) with splitmix64 and
// compares against the configured rate; no mutable RNG stream exists.
//
// Fault kinds mirror what real sampled profilers produce under stress:
//   * nan       — a run of NaN entries (arithmetic on an empty sample)
//   * spike     — a burst above 1.0 breaking monotonicity (hash
//                 collisions on a tiny sample)
//   * truncate  — the estimate stops early (dropped profiler message)
//   * drop      — no estimate at all for one (epoch, program)
//   * dp_fail   — the optimizer itself errors for one epoch
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "runtime/controller.hpp"

namespace ocps {

/// Per-kind fault probabilities (each in [0, 1]) and the seed that makes
/// the injection schedule deterministic.
struct FaultInjectionConfig {
  double nan_rate = 0.0;       ///< P[NaN-lace an estimate]
  double spike_rate = 0.0;     ///< P[spike an estimate above 1]
  double truncate_rate = 0.0;  ///< P[truncate an estimate]
  double drop_rate = 0.0;      ///< P[drop an estimate entirely]
  double dp_fail_rate = 0.0;   ///< P[fail the DP for an epoch]
  std::uint64_t seed = 0xFA117;

  /// Convenience: every kind at the same rate r.
  static FaultInjectionConfig uniform(double r, std::uint64_t seed = 0xFA117);
};

/// Seeded injector producing ControllerHooks. The injector outlives the
/// controller run (hooks hold a pointer to it); it also tallies what it
/// injected so benches can report the realized fault load.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultInjectionConfig& config);

  /// Hooks to pass to run_online_controller. The injector must stay
  /// alive for the duration of the run.
  ControllerHooks hooks();

  /// Faults injected so far, by kind and in total.
  std::size_t injected_nan() const { return nan_; }
  std::size_t injected_spikes() const { return spikes_; }
  std::size_t injected_truncations() const { return truncations_; }
  std::size_t injected_drops() const { return drops_; }
  std::size_t injected_dp_failures() const { return dp_failures_; }
  std::size_t injected_total() const {
    return nan_ + spikes_ + truncations_ + drops_ + dp_failures_;
  }

  // Hook bodies (public so tests can drive them directly).
  void corrupt_mrc(std::size_t epoch, std::size_t program,
                   std::vector<double>& ratios);
  bool drop_estimate(std::size_t epoch, std::size_t program);
  bool fail_dp(std::size_t epoch);

 private:
  /// Uniform [0,1) draw that is a pure function of the identifiers.
  double draw(std::uint64_t kind, std::size_t epoch,
              std::size_t program) const;

  FaultInjectionConfig config_;
  std::size_t nan_ = 0;
  std::size_t spikes_ = 0;
  std::size_t truncations_ = 0;
  std::size_t drops_ = 0;
  std::size_t dp_failures_ = 0;
};

// ---------------------------------------------------------------------------
// Socket-layer fault injection for the serving plane.
//
// The controller injector above corrupts *data*; this one corrupts the
// *network*. It models what a fleet actually sees between a router and
// its backend daemons:
//   * accept_fail — the daemon accepts and immediately drops the
//                   connection (fd exhaustion, overload kill)
//   * reset       — the response is cut mid-line and the connection
//                   torn down (peer crash, middlebox reset)
//   * trickle     — the response dribbles out a byte at a time (a slow
//                   or congested peer exercising partial-read paths)
//   * stall       — the daemon holds the response past the deadline (GC
//                   pause, overloaded box) before answering normally
//
// Determinism: sockets have no (epoch, program) identity, so each
// decision is a pure function of (seed, kind, sequence number), with the
// sequence number a per-kind atomic counter. Two runs performing the
// same Nth accept / Nth response see exactly the same fault, which is
// what the chaos harness and the retry tests rely on.

/// Per-kind socket fault probabilities (each in [0, 1]) and the seed
/// that makes the schedule deterministic.
struct NetFaultConfig {
  double accept_fail_rate = 0.0;  ///< P[drop a freshly accepted conn]
  double reset_rate = 0.0;        ///< P[cut a response mid-line]
  double trickle_rate = 0.0;      ///< P[write a response byte-by-byte]
  double stall_rate = 0.0;        ///< P[delay a response by `stall`]
  std::chrono::milliseconds stall{40};  ///< stall duration when injected
  std::uint64_t seed = 0x5EAFA117;

  /// Convenience: every kind at the same rate r.
  static NetFaultConfig uniform(double r, std::uint64_t seed = 0x5EAFA117);
};

/// Seeded socket-fault injector. Thread-safe: the accept loop and every
/// writer thread may consult it concurrently; sequence numbers and
/// tallies are atomics. The server consults it through a const pointer
/// in ServeConfig, so production builds pay one branch when unset.
class NetFaultInjector {
 public:
  /// What to do to the response currently being written. At most one
  /// fault is injected per response; reset wins over trickle over stall.
  enum class WriteFault { kNone, kReset, kTrickle, kStall };

  explicit NetFaultInjector(const NetFaultConfig& config);

  /// Decide the fate of the next accepted connection / written response.
  /// Mutable tallies only; the decision itself is a pure function of
  /// (seed, kind, sequence).
  bool fail_accept() const;
  WriteFault write_fault() const;

  std::chrono::milliseconds stall_duration() const { return config_.stall; }
  const NetFaultConfig& config() const { return config_; }

  /// Faults injected so far, by kind and in total.
  std::size_t injected_accept_failures() const { return accept_failures_; }
  std::size_t injected_resets() const { return resets_; }
  std::size_t injected_trickles() const { return trickles_; }
  std::size_t injected_stalls() const { return stalls_; }
  std::size_t injected_total() const {
    return accept_failures_ + resets_ + trickles_ + stalls_;
  }

 private:
  /// Uniform [0,1) draw that is a pure function of (seed, kind, seq).
  double draw(std::uint64_t kind, std::uint64_t seq) const;

  NetFaultConfig config_;
  mutable std::atomic<std::uint64_t> accept_seq_{0};
  mutable std::atomic<std::uint64_t> write_seq_{0};
  mutable std::atomic<std::size_t> accept_failures_{0};
  mutable std::atomic<std::size_t> resets_{0};
  mutable std::atomic<std::size_t> trickles_{0};
  mutable std::atomic<std::size_t> stalls_{0};
};

}  // namespace ocps
