// The three benchmark workloads. Each runs set-up (timed as setup_s),
// measures for Options::seconds, checks every output, and fills a Report
// with its end-to-end metrics, plus per-layer ones when traced.
#pragma once

#include "common.hpp"

namespace ocpsbench {

/// Traces in memory -> reuse profiles -> footprints -> models -> the
/// 1820-group six-method sweep at C = 1024 -> Table I rows, repeated.
Report run_table1_cold(const Options& options);

/// Seeded open-loop `partition` traffic pipelined over persistent
/// connections into one in-process serve::Server.
Report run_serve_batched(const Options& options);

/// Light open-loop traffic, one fresh connection per request, through a
/// serve::Router in front of two serve::Server backends, with periodic
/// fleet-wide `reload` and `health`.
Report run_fleet_churn(const Options& options);

}  // namespace ocpsbench
