// Strict integer, real and boolean environment knobs.
//
// Every integer DMIS_* knob is read through env_int(), so all of them
// reject malformed values the same way: the whole value must be one
// base-10 integer inside the knob's range. "1e6", "5s", "10abc" and
// out-of-range values throw InvalidArgument naming the knob rather than
// being read as a prefix or failing later under another name. Real
// knobs go through env_double() under the same rule ("2.5x", "inf" and
// "nan" are errors), and boolean knobs through env_bool(): "no",
// "disabled" or a typo is an error, never silently on or off.
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

/// Value of real knob `name`, or nullopt when it is unset or empty.
/// Throws InvalidArgument unless the whole value is one finite number
/// greater than `above`.
std::optional<double> env_double(const char* name, double above);

/// Value of boolean knob `name`, or nullopt when it is unset or empty.
/// Accepts exactly 1/0, true/false and on/off; throws InvalidArgument
/// naming the knob on anything else.
std::optional<bool> env_bool(const char* name);

}  // namespace dmis
