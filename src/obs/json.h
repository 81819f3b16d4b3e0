// Minimal streaming JSON writer for the obs exporters. Deterministic output
// (keys appear in call order, doubles rendered with fixed precision), string
// escaping per RFC 8259, automatic comma placement.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace irs::obs {

class JsonWriter {
 public:
  /// Double rendering policy. kSixDigits ("%.6g") is the human-oriented
  /// default used by the trace exporters. kRoundTrip emits the shortest
  /// decimal that parses back to the exact same double (std::to_chars), so
  /// a value can cross an NDJSON file and come back bit-identical —
  /// result_from_json's round trip depends on this.
  enum class Doubles { kSixDigits, kRoundTrip };

  explicit JsonWriter(Doubles doubles = Doubles::kSixDigits)
      : doubles_(doubles) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object key; must be followed by a value or begin_*.
  JsonWriter& key(const std::string& k);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(bool v);

  /// key+value in one call.
  template <typename T>
  JsonWriter& field(const std::string& k, T v) {
    key(k);
    return value(v);
  }

  [[nodiscard]] std::string str() const { return os_.str(); }

 private:
  void comma();

  std::ostringstream os_;
  // One entry per open container: number of elements emitted so far.
  std::vector<std::size_t> counts_;
  bool after_key_ = false;
  Doubles doubles_ = Doubles::kSixDigits;
};

/// JSON string literal (quotes + escapes applied).
std::string json_escape(const std::string& s);

}  // namespace irs::obs
