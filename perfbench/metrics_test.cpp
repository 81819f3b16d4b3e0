// perfbench_selftest: checks the benchmark's own metric code — the
// percentile rule, span self time, the result digest, and RSS reading.
// Exits 1 if any check fails. run.py runs it before every benchmark.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics.h"

namespace {

int g_failed = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_selftest: FAILED %s\n", what);
    ++g_failed;
  }
}

void test_percentile() {
  using perfbench::percentile;
  check(percentile({}, 50) == 0.0, "percentile of empty sample is 0");
  check(percentile({7}, 90) == 7.0, "percentile of one sample");
  // 1..100 in reverse order: the nearest rank of p is exactly p.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  check(percentile(v, 50) == 50.0, "p50 of 1..100 is 50");
  check(percentile(v, 90) == 90.0, "p90 of 1..100 is 90");
  check(percentile(v, 90.5) == 91.0, "p90.5 of 1..100 rounds the rank up");
  check(percentile(v, 0) == 1.0, "p0 is the minimum");
  check(percentile(v, 100) == 100.0, "p100 is the maximum");
  // Even count: the median is the lower middle sample.
  check(percentile({4, 1, 3, 2}, 50) == 2.0, "median of 4 is lower middle");
  // Ten samples: p90 has exactly one sample beyond it.
  check(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90) == 9.0,
        "p90 of 1..10 is 9");
}

void test_self_time() {
  perfbench::SpanLog log;
  const int root = log.begin("root", -1, 0);
  const int a = log.begin("a", 0, 10);
  const int a1 = log.begin("a1", 0, 12);
  log.end(a1, 15);
  log.end(a, 30);
  const int b = log.begin("b", 1, 40);
  log.end(b, 45);
  log.end(root, 100);
  const auto& s = log.spans();
  check(s.size() == 4, "four spans logged");
  check(s[static_cast<std::size_t>(a)].parent == root, "a's parent is root");
  check(s[static_cast<std::size_t>(a1)].parent == a, "a1's parent is a");
  check(s[static_cast<std::size_t>(b)].req == 1, "b carries its request id");
  const auto self = perfbench::self_times(s);
  check(self[static_cast<std::size_t>(root)] == 100 - 20 - 5,
        "root self time excludes its children");
  check(self[static_cast<std::size_t>(a)] == 20 - 3,
        "a self time excludes a1");
  check(self[static_cast<std::size_t>(a1)] == 3, "leaf self time = duration");

  // Overlapping and out-of-range children count once, clipped to the parent.
  std::vector<perfbench::Span> manual = {
      {"p", 0, 10, -1, -1}, {"c1", 2, 6, 0, -1}, {"c2", 4, 8, 0, -1},
      {"c3", 9, 20, 0, -1}};
  const auto self2 = perfbench::self_times(manual);
  check(self2[0] == 10 - 6 - 1, "overlapping children form one union");

  bool threw = false;
  perfbench::SpanLog bad;
  const int outer = bad.begin("outer", -1, 0);
  bad.begin("inner", -1, 1);
  try {
    bad.end(outer, 2);
  } catch (const std::logic_error&) {
    threw = true;
  }
  check(threw, "closing a span out of order throws");

  const std::string json = perfbench::spans_chrome_json(s);
  check(json.find("\"name\":\"a1\"") != std::string::npos &&
            json.find("\"parent\":1") != std::string::npos,
        "chrome export names spans and parents");
}

void test_digest() {
  // Published FNV-1a 64 test vectors.
  check(perfbench::fnv1a64("") == 0xcbf29ce484222325ULL, "fnv1a64(\"\")");
  check(perfbench::fnv1a64("a") == 0xaf63dc4c8601ec8cULL, "fnv1a64(\"a\")");
  check(perfbench::fnv1a64("foobar") == 0x85944171f73967e8ULL,
        "fnv1a64(\"foobar\")");
  check(perfbench::fnv1a64("{\"a\":1}") != perfbench::fnv1a64("{\"a\":2}"),
        "digest separates results that differ in one byte");
}

void test_rss() {
  std::uint64_t kib = 0;
  check(perfbench::parse_vm_hwm_kib(
            "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4 kB\n",
            &kib) &&
            kib == 5120,
        "VmHWM parsed from a status text");
  check(!perfbench::parse_vm_hwm_kib("VmRSS:\t 4 kB\n", &kib),
        "missing VmHWM is an error");
  check(!perfbench::parse_vm_hwm_kib("VmHWM:\t  kB\n", &kib),
        "VmHWM without digits is an error");
  check(!perfbench::parse_vm_hwm_kib("VmHWM:\t 12 MB\n", &kib),
        "VmHWM in an unknown unit is an error");
  // Touching 32 MiB must raise the peak by about that much.
  const double before = perfbench::peak_rss_mib();
  std::vector<char> block(32u << 20);
  volatile char* touch = block.data();  // the writes must not be elided
  for (std::size_t i = 0; i < block.size(); i += 4096) touch[i] = 1;
  const double after = perfbench::peak_rss_mib();
  check(before > 0.0, "peak RSS is positive");
  check(after - before > 24.0, "peak RSS follows touched memory");
}

}  // namespace

int main() {
  test_percentile();
  test_self_time();
  test_digest();
  test_rss();
  if (g_failed > 0) return EXIT_FAILURE;
  std::fprintf(stderr, "perfbench_selftest: all checks passed\n");
  return EXIT_SUCCESS;
}
