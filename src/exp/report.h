// Plain-text table rendering for the benchmark binaries: each bench prints
// the same rows/series the corresponding paper figure reports.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/exp/runner.h"
#include "src/exp/sweep.h"
#include "src/obs/attribution.h"
#include "src/obs/json.h"
#include "src/obs/json_reader.h"
#include "src/sim/time.h"

namespace irs::exp {

/// Fixed-width text table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;
  /// RFC-4180-ish CSV: header row then data rows; cells containing a comma,
  /// quote, or newline are double-quoted with quotes doubled.
  void print_csv(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// "+12.3%" / "-4.5%"
std::string fmt_pct(double pct);
/// "12.34" with the given precision.
std::string fmt_f(double v, int prec = 2);
/// Milliseconds with two decimals: "26.40ms".
std::string fmt_ms(sim::Duration d);
/// Microseconds with one decimal: "23.4us".
std::string fmt_us(sim::Duration d);

/// Print a figure banner ("=== Figure 5(a): ... ===").
void banner(std::ostream& os, const std::string& title);

/// Stable JSON rendering of a RunResult: one object, fixed key order,
/// durations in nanoseconds as integers, doubles in shortest round-trip
/// form (so result_from_json recovers the exact bits), and each non-empty
/// result block (see for_each_block) after its digest. The machine-readable
/// sibling of the text tables — sweeps stream one object per run.
std::string result_json(const RunResult& r);

/// Inverse of result_json over a parsed object: every field is required and
/// type-checked (a result block itself is omitted when empty, its digest
/// never is), unknown keys are ignored. On failure returns false and names
/// the offending field in *err (when non-null).
bool result_from_value(const obs::JsonValue& v, RunResult* r,
                       std::string* err);

/// Parse one result_json document. result_json(parsed) reproduces the
/// input byte-for-byte, and the parsed result is bit-identical to the one
/// that was serialized (round-trip doubles).
bool result_from_json(const std::string& json, RunResult* r,
                      std::string* err);

/// Streaming NDJSON sink over run_sweep's in-order consumer overload: one
/// result_json object per line, flushed per run so a killed sweep leaves a
/// readable prefix. `out` must outlive the sweep.
SweepConsumer ndjson_consumer(std::ostream& out);

/// Per-task interference breakdown as a fixed-width table: one row per
/// charged task (largest first) plus totals, coverage, and an explicit
/// truncation note when the trace ring wrapped.
void print_attribution(std::ostream& os, const obs::AttributionResult& a);

/// Stable JSON rendering of an AttributionResult (fixed key order,
/// durations in nanoseconds).
std::string attribution_json(const obs::AttributionResult& a);

}  // namespace irs::exp
