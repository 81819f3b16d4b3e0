// Metric helpers of the perfbench benchmark: the percentile rule, timed
// spans with self time, the per-run result digest, and peak-RSS reading.
// They live apart from main.cpp so perfbench_selftest can check them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic host time in nanoseconds (std::chrono::steady_clock).
std::int64_t now_ns();

/// Nearest-rank percentile: the smallest sample such that at least p% of
/// the samples are at or below it. p <= 0 gives the minimum, p >= 100 the
/// maximum, an empty sample 0. The median is percentile(v, 50), which for
/// an even count is the lower of the two middle samples.
double percentile(std::vector<double> v, double p);

/// FNV-1a 64 over the bytes of `s`. The per-run result digest is this over
/// the run's exp::result_json text, so it covers every serialized field.
std::uint64_t fnv1a64(std::string_view s);

/// One timed call made by the benchmark. `name` must be a string literal.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;         // index into the span log; -1 for a root
  std::int64_t req = -1;   // run index the call belongs to; -1 for none
};

/// In-memory span log. begin() makes the innermost open span the parent;
/// spans must close in LIFO order.
class SpanLog {
 public:
  int begin(const char* name, std::int64_t req, std::int64_t t = now_ns());
  void end(int id, std::int64_t t = now_ns());

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" events, microseconds) of a span log, with
/// each span's index, parent, and request id in args.
std::string spans_chrome_json(const std::vector<Span>& spans);

/// The VmHWM (peak resident set) line of a /proc/<pid>/status text, in KiB.
/// Returns false when the line is missing or malformed.
bool parse_vm_hwm_kib(std::string_view status, std::uint64_t* kib);

/// Peak resident set of this process image in MiB: VmHWM from
/// /proc/self/status. (getrusage's ru_maxrss is no substitute: after exec
/// it still counts the peak of the process that forked this one.)
double peak_rss_mib();

}  // namespace perfbench
