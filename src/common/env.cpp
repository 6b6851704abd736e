#include "common/env.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <initializer_list>

#include "common/check.hpp"

namespace dmis {

std::optional<int64_t> env_int(const char* name, int64_t min, int64_t max) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(env, &end, 10);
  DMIS_CHECK(end != env && *end == '\0' && errno != ERANGE && v >= min &&
                 v <= max,
             name << " must be an integer in [" << min << ", " << max
                  << "], got '" << env << "'");
  return static_cast<int64_t>(v);
}

std::optional<double> env_double(const char* name, double above) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  DMIS_CHECK(end != env && *end == '\0' && std::isfinite(v) && v > above,
             name << " must be a finite number > " << above << ", got '"
                  << env << "'");
  return v;
}

std::optional<bool> env_bool(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return std::nullopt;
  for (const char* on : {"1", "true", "on"}) {
    if (std::strcmp(env, on) == 0) return true;
  }
  for (const char* off : {"0", "false", "off"}) {
    if (std::strcmp(env, off) == 0) return false;
  }
  DMIS_CHECK(false, name << " must be one of 1/0, true/false, on/off, got '"
                         << env << "'");
  return std::nullopt;  // unreachable
}

}  // namespace dmis
