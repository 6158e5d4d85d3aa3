#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Json::key(const std::string& key) {
  if (!body_.empty()) {
    body_ += ',';
  }
  body_ += json_string(key) + ':';
}

Json& Json::num(const std::string& k, double value) {
  key(k);
  body_ += json_number(value);
  return *this;
}

Json& Json::integer(const std::string& k, std::int64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

Json& Json::str(const std::string& k, const std::string& value) {
  key(k);
  body_ += json_string(value);
  return *this;
}

Json& Json::nums(const std::string& k, const std::vector<double>& values) {
  key(k);
  body_ += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      body_ += ',';
    }
    body_ += json_number(values[i]);
  }
  body_ += ']';
  return *this;
}

Json& Json::obj(const std::string& k, const Json& value) {
  key(k);
  body_ += value.dump();
  return *this;
}

}  // namespace perfbench
