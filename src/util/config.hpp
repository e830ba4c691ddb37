// Environment-variable configuration for bench binaries.
//
// The harness binaries are run as plain executables (`for b in bench/*; do
// $b; done`), so their knobs — group-count limits, cache size, trace length,
// CSV output — come from OCPS_* environment variables with safe defaults.
#pragma once

#include <cstdint>
#include <string>

namespace ocps {

/// Reads an integer env var; returns fallback when unset or malformed.
std::int64_t env_int(const std::string& name, std::int64_t fallback);

/// Reads a string env var; returns fallback when unset.
std::string env_string(const std::string& name, const std::string& fallback);

/// True when the env var is set to a truthy value ("1", "true", "yes", "on").
bool env_flag(const std::string& name, bool fallback = false);

}  // namespace ocps
