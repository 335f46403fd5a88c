// Environment-variable overrides, shared by the engine knobs (UD_SHARDS,
// UD_TRACE_SLICE, UD_JOBS, ...).
//
// Integer knobs parse strictly: std::from_chars over the whole value, no
// sign, no trailing characters, range-checked. A typo like UD_SHARDS=4x or a
// wrapped UD_SHARDS=-1 is a configuration error the user needs to see, not
// a value to silently truncate — both used to slip through strtoul.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace updown {

/// UDSIM_LOG-style boolean env override: unset/empty leaves the configured
/// default, "0" turns the flag off, any other value turns it on.
inline bool env_flag(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  return !(v[0] == '0' && v[1] == '\0');
}

/// Strict base-10 unsigned env override. Unset/empty/"0" leaves the
/// configured `fallback` ("0" means "keep the default" for every engine
/// knob). Anything else must parse exactly and lie within [1, max];
/// otherwise throws std::invalid_argument naming the variable, so the bad
/// setting is a hard startup failure instead of a silently mangled run.
inline std::uint64_t env_u64(const char* name, std::uint64_t fallback,
                             std::uint64_t max = ~0ull) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  std::uint64_t parsed = 0;
  const char* end = v + std::strlen(v);
  const auto [ptr, ec] = std::from_chars(v, end, parsed, 10);
  if (ec != std::errc{} || ptr != end)
    throw std::invalid_argument(std::string(name) + "='" + v +
                                "': not a base-10 unsigned integer");
  if (parsed > max)
    throw std::invalid_argument(std::string(name) + "='" + v + "': exceeds the maximum " +
                                std::to_string(max));
  return parsed == 0 ? fallback : parsed;
}

}  // namespace updown
