#include "hymv/common/env.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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

void warn_rejected(const char* name, const char* value, const char* kind) {
  std::fprintf(stderr,
               "hymv: ignoring %s='%s' (not a valid %s); using fallback\n",
               name, value, kind);
}

}  // namespace

std::int64_t env_int(const std::string& name, std::int64_t fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr) {
    return fallback;
  }
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value, &end, 10);
  if (!fully_consumed(value, end) || errno == ERANGE) {
    warn_rejected(name.c_str(), value, "integer");
    return fallback;
  }
  return static_cast<std::int64_t>(parsed);
}

bool env_flag(const std::string& name, bool fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr) {
    return fallback;
  }
  char* end = nullptr;
  const long long parsed = std::strtoll(value, &end, 10);
  if (!fully_consumed(value, end) || (parsed != 0 && parsed != 1)) {
    warn_rejected(name.c_str(), value, "0/1 switch");
    return fallback;
  }
  return parsed == 1;
}

double env_double(const std::string& name, double fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr) {
    return fallback;
  }
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value, &end);
  if (!fully_consumed(value, end) || errno == ERANGE) {
    warn_rejected(name.c_str(), value, "number");
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
  if (end == value || errno == ERANGE) {
    warn_rejected(name.c_str(), value, "duration (e.g. 250, 250ms, 1.5s, 2m)");
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
    warn_rejected(name.c_str(), value, "duration (e.g. 250, 250ms, 1.5s, 2m)");
    return fallback_ms;
  }
  const double ms = parsed * scale_ms;
  if (!(ms >= 0.0) || !std::isfinite(ms)) {
    warn_rejected(name.c_str(), value, "non-negative duration");
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
    warn_rejected(name.c_str(), value, "byte size (e.g. 4096, 256M, 1GiB)");
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
    warn_rejected(name.c_str(), value, "byte size (e.g. 4096, 256M, 1GiB)");
    return fallback;
  }
  if (parsed < 0 ||
      parsed > std::numeric_limits<std::int64_t>::max() / scale) {
    warn_rejected(name.c_str(), value, "non-negative byte size");
    return fallback;
  }
  return static_cast<std::int64_t>(parsed) * scale;
}

}  // namespace hymv
