#include "hymv/common/env.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace hymv {

namespace {

/// True when `end` points at nothing but trailing whitespace — the whole
/// value was consumed by the numeric parse.
bool fully_consumed(const char* value, const char* end) {
  if (end == value) {
    return false;  // no digits at all
  }
  while (*end != '\0') {
    if (!std::isspace(static_cast<unsigned char>(*end))) {
      return false;  // trailing garbage, e.g. "8abc"
    }
    ++end;
  }
  return true;
}

/// True when `value` is a whole std::int64_t, stored in `*out`.
bool parse_int(const char* value, std::int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value, &end, 10);
  if (!fully_consumed(value, end) || errno == ERANGE) {
    return false;
  }
  *out = static_cast<std::int64_t>(parsed);
  return true;
}

/// True when `value` is a whole double that did not overflow, stored in
/// `*out`.
bool parse_double(const char* value, double* out) {
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value, &end);
  if (!fully_consumed(value, end) || errno == ERANGE) {
    return false;
  }
  *out = parsed;
  return true;
}

}  // namespace

void warn_env_rejected(const std::string& name, const char* value,
                       const char* expected) {
  std::fprintf(stderr,
               "hymv: ignoring %s='%s' (expected %s); using fallback\n",
               name.c_str(), value, expected);
}

std::int64_t env_int(const std::string& name, std::int64_t fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr) {
    return fallback;
  }
  std::int64_t parsed = 0;
  if (!parse_int(value, &parsed)) {
    warn_env_rejected(name, value, "an integer");
    return fallback;
  }
  return parsed;
}

std::int64_t env_int_in_range(const std::string& name, std::int64_t fallback,
                              std::int64_t lo, std::int64_t hi) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr) {
    return fallback;
  }
  std::int64_t parsed = 0;
  if (!parse_int(value, &parsed) || parsed < lo || parsed > hi) {
    const std::string expected = "an integer in [" + std::to_string(lo) +
                                 ", " + std::to_string(hi) + "]";
    warn_env_rejected(name, value, expected.c_str());
    return fallback;
  }
  return parsed;
}

bool env_flag(const std::string& name, bool fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr) {
    return fallback;
  }
  std::int64_t parsed = 0;
  if (!parse_int(value, &parsed) || (parsed != 0 && parsed != 1)) {
    warn_env_rejected(name, value, "0 or 1");
    return fallback;
  }
  return parsed == 1;
}

double env_double(const std::string& name, double fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr) {
    return fallback;
  }
  double parsed = 0.0;
  if (!parse_double(value, &parsed)) {
    warn_env_rejected(name, value, "a number");
    return fallback;
  }
  return parsed;
}

double env_double_above(const std::string& name, double fallback,
                        double lo) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr) {
    return fallback;
  }
  double parsed = 0.0;
  if (!parse_double(value, &parsed) || !(parsed > lo)) {
    char expected[48];
    std::snprintf(expected, sizeof(expected), "a number > %g", lo);
    warn_env_rejected(name, value, expected);
    return fallback;
  }
  return parsed;
}

namespace {

/// Case-insensitive match of the suffix at `p` (letters only), consuming
/// trailing whitespace; true when the remaining text is exactly `suffix`.
bool suffix_is(const char* p, const char* suffix) {
  while (*suffix != '\0') {
    if (std::tolower(static_cast<unsigned char>(*p)) !=
        std::tolower(static_cast<unsigned char>(*suffix))) {
      return false;
    }
    ++p;
    ++suffix;
  }
  while (*p != '\0') {
    if (!std::isspace(static_cast<unsigned char>(*p))) {
      return false;
    }
    ++p;
  }
  return true;
}

}  // namespace

double env_duration_ms(const std::string& name, double fallback_ms) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr) {
    return fallback_ms;
  }
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value, &end);
  constexpr const char* kDuration = "a duration (e.g. 250, 250ms, 1.5s, 2m)";
  if (end == value || errno == ERANGE) {
    warn_env_rejected(name, value, kDuration);
    return fallback_ms;
  }
  double scale_ms = 1.0;  // bare numbers are milliseconds
  if (suffix_is(end, "ms") || suffix_is(end, "")) {
    scale_ms = 1.0;
  } else if (suffix_is(end, "s")) {
    scale_ms = 1000.0;
  } else if (suffix_is(end, "m")) {
    scale_ms = 60000.0;
  } else {
    warn_env_rejected(name, value, kDuration);
    return fallback_ms;
  }
  const double ms = parsed * scale_ms;
  if (!(ms >= 0.0) || !std::isfinite(ms)) {
    warn_env_rejected(name, value, "a non-negative duration");
    return fallback_ms;
  }
  return ms;
}

std::int64_t env_size_bytes(const std::string& name, std::int64_t fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr) {
    return fallback;
  }
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value, &end, 10);
  if (end == value || errno == ERANGE) {
    warn_env_rejected(name, value, "a byte size (e.g. 4096, 256M, 1GiB)");
    return fallback;
  }
  std::int64_t scale = 1;
  if (suffix_is(end, "") || suffix_is(end, "b")) {
    scale = 1;
  } else if (suffix_is(end, "k") || suffix_is(end, "kb") ||
             suffix_is(end, "kib")) {
    scale = std::int64_t{1} << 10;
  } else if (suffix_is(end, "m") || suffix_is(end, "mb") ||
             suffix_is(end, "mib")) {
    scale = std::int64_t{1} << 20;
  } else if (suffix_is(end, "g") || suffix_is(end, "gb") ||
             suffix_is(end, "gib")) {
    scale = std::int64_t{1} << 30;
  } else {
    warn_env_rejected(name, value, "a byte size (e.g. 4096, 256M, 1GiB)");
    return fallback;
  }
  if (parsed < 0 ||
      parsed > std::numeric_limits<std::int64_t>::max() / scale) {
    warn_env_rejected(name, value, "a non-negative byte size");
    return fallback;
  }
  return static_cast<std::int64_t>(parsed) * scale;
}

int env_choice(const std::string& name, std::span<const char* const> names) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr) {
    return -1;
  }
  std::string expected;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (std::strcmp(value, names[i]) == 0) {
      return static_cast<int>(i);
    }
    expected += i == 0 ? "" : "|";
    expected += *names[i] == '\0' ? "''" : names[i];
  }
  warn_env_rejected(name, value, expected.c_str());
  return -1;
}

}  // namespace hymv
