#include "common/env.hpp"

#include <cerrno>
#include <cstdlib>

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

}  // namespace dmis
