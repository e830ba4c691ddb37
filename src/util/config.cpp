#include "util/config.hpp"

#include <algorithm>
#include <cstdlib>

namespace ocps {

namespace {
const char* lookup(const std::string& name) { return std::getenv(name.c_str()); }
}  // namespace

std::int64_t env_int(const std::string& name, std::int64_t fallback) {
  const char* v = lookup(name);
  if (!v || !*v) return fallback;
  char* end = nullptr;
  long long parsed = std::strtoll(v, &end, 10);
  if (end == v || (end && *end != '\0')) return fallback;
  return static_cast<std::int64_t>(parsed);
}

std::string env_string(const std::string& name, const std::string& fallback) {
  const char* v = lookup(name);
  return (v && *v) ? std::string(v) : fallback;
}

bool env_flag(const std::string& name, bool fallback) {
  const char* v = lookup(name);
  if (!v || !*v) return fallback;
  std::string s(v);
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s == "1" || s == "true" || s == "yes" || s == "on";
}

}  // namespace ocps
