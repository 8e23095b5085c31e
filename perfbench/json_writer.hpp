// Minimal streaming JSON writer for the launcher's raw records.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class JsonWriter {
 public:
  JsonWriter& begin_object() { open('{'); return *this; }
  JsonWriter& end_object() { close('}'); return *this; }
  JsonWriter& begin_array() { open('['); return *this; }
  JsonWriter& end_array() { close(']'); return *this; }

  JsonWriter& key(std::string_view k) {
    separate();
    quote(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }

  JsonWriter& value(double v) {
    separate();
    if (!std::isfinite(v)) {
      out_ += "null";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out_ += buf;
    }
    return *this;
  }
  JsonWriter& value(int64_t v) {
    separate();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(uint64_t v) {
    separate();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(int v) { return value(static_cast<int64_t>(v)); }
  JsonWriter& value(bool v) {
    separate();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& value(std::string_view v) {
    separate();
    quote(v);
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  /// Inserts an already-serialised JSON value verbatim.
  JsonWriter& raw(std::string_view json) {
    separate();
    out_ += json;
    return *this;
  }

  template <typename T>
  JsonWriter& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }
  template <typename T>
  JsonWriter& array_field(std::string_view k, const std::vector<T>& values) {
    key(k).begin_array();
    for (const T& v : values) value(v);
    return end_array();
  }

  const std::string& str() const { return out_; }

 private:
  void open(char c) {
    separate();
    out_ += c;
    first_.push_back(true);
  }
  void close(char c) {
    out_ += c;
    first_.pop_back();
  }
  // Emits the comma between container elements; a value that follows its
  // key needs none.
  void separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }
  void quote(std::string_view s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace perfbench
