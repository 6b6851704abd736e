// Strict integer environment knobs.
//
// Every integer DMIS_* knob is read through env_int(), so all of them
// reject malformed values the same way: the whole value must be one
// base-10 integer inside the knob's range. "1e6", "5s", "10abc" and
// out-of-range values throw InvalidArgument naming the knob rather than
// being read as a prefix or failing later under another name.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

namespace dmis {

/// Value of integer knob `name`, or nullopt when it is unset or empty.
/// Throws InvalidArgument unless the value is a base-10 integer in
/// [min, max].
std::optional<int64_t> env_int(
    const char* name, int64_t min,
    int64_t max = std::numeric_limits<int64_t>::max());

}  // namespace dmis
