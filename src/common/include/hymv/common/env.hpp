#pragma once

/// \file env.hpp
/// The environment readers. Edge code (mains, the driver's resolvers, the
/// service's ServiceOptions::from_env) and the process-wide switches call
/// them; library objects take their options as arguments. Every reader
/// returns its fallback when the variable is unset, and on a value it
/// rejects prints one stderr line of the form
///   hymv: ignoring NAME='value' (expected ...); using fallback
/// and returns the fallback.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace hymv {

/// Read an integer environment variable. Returns `fallback` when unset;
/// values with trailing garbage ("8abc") or out of std::int64_t range are
/// rejected with a one-line stderr warning (trailing whitespace is fine).
[[nodiscard]] std::int64_t env_int(const std::string& name,
                                   std::int64_t fallback);

/// Read an integer in [lo, hi]: env_int's parse, and a value outside the
/// range warns and keeps `fallback`.
[[nodiscard]] std::int64_t env_int_in_range(const std::string& name,
                                            std::int64_t fallback,
                                            std::int64_t lo, std::int64_t hi);

/// Read a 0/1 switch. Returns `fallback` when unset, false for 0 and true
/// for 1 (surrounding whitespace is fine); any other value ("2", "yes",
/// "") is rejected with a one-line stderr warning and keeps `fallback`.
[[nodiscard]] bool env_flag(const std::string& name, bool fallback);

/// Read a floating-point environment variable. Returns `fallback` when
/// unset; trailing garbage and values outside the double range are rejected
/// with a one-line stderr warning.
[[nodiscard]] double env_double(const std::string& name, double fallback);

/// Read a number greater than `lo`: env_double's parse, and a value at or
/// below `lo` warns and keeps `fallback`.
[[nodiscard]] double env_double_above(const std::string& name, double fallback,
                                      double lo);

/// Read a duration environment variable, returned in milliseconds. The
/// value is a non-negative number with an optional unit suffix: "ms"
/// (default when no suffix), "s", or "m" (minutes) — e.g. "250", "250ms",
/// "1.5s", "2m". Returns `fallback_ms` when unset; negative values,
/// non-finite results, unknown suffixes, and trailing garbage are rejected
/// with a one-line stderr warning. Used by the HYMV_SVC_* service knobs.
[[nodiscard]] double env_duration_ms(const std::string& name,
                                     double fallback_ms);

/// Read a byte-size environment variable. The value is a non-negative
/// integer with an optional binary-scale suffix: "K"/"KB"/"KiB" (1024),
/// "M"/"MB"/"MiB" (1024²), "G"/"GB"/"GiB" (1024³), or a bare "B"
/// (case-insensitive) — e.g. "268435456", "256M", "1GiB". Returns
/// `fallback` when unset; negative values, fractional values, unknown
/// suffixes, trailing garbage, and sizes that overflow std::int64_t are
/// rejected with a one-line stderr warning. Used by the HYMV_SVC_* knobs.
[[nodiscard]] std::int64_t env_size_bytes(const std::string& name,
                                          std::int64_t fallback);

/// The index of the variable's value in `names` (exact match), or -1 when
/// it is unset; any other value warns, listing `names`, and returns -1.
[[nodiscard]] int env_choice(const std::string& name,
                             std::span<const char* const> names);

/// Print the rejection line above for `name`'s `value`, for a reader whose
/// accepted spellings the readers here do not express (HYMV_ISA's names are
/// case-insensitive).
void warn_env_rejected(const std::string& name, const char* value,
                       const char* expected);

/// Read a value by name: `values[i]` is spelled `name_of(values[i])`.
/// Returns `fallback` when unset; any other spelling warns and keeps
/// `fallback`.
template <typename T, std::size_t N, typename NameOf>
[[nodiscard]] T env_enum(const std::string& name, T fallback,
                         const std::array<T, N>& values, NameOf name_of) {
  std::array<const char*, N> names{};
  for (std::size_t i = 0; i < N; ++i) {
    names[i] = name_of(values[i]);
  }
  const int index = env_choice(name, names);
  return index < 0 ? fallback : values[static_cast<std::size_t>(index)];
}

}  // namespace hymv
