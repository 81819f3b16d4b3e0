// Windowed SLO observability: LatencyHistogram bucket geometry and exact
// merge, SloTracker window tumbling, JSON round-trips, and the end-to-end
// guarantee that enabling SLO tracking never perturbs a run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/exp/grids.h"
#include "src/exp/report.h"
#include "src/exp/runner.h"
#include "src/exp/stats.h"
#include "src/exp/sweep.h"
#include "src/obs/json.h"
#include "src/obs/json_reader.h"
#include "src/obs/slo.h"
#include "src/sim/rng.h"

namespace {

using namespace irs;
using obs::LatencyHistogram;

// --- bucket geometry ------------------------------------------------------

TEST(SloHistogram, BucketsTileTheRangeContiguously) {
  // Every value maps into exactly one bucket whose [lower, next-lower)
  // range contains it, and bucket lowers are strictly increasing.
  for (int idx = 0; idx + 1 < LatencyHistogram::kNumBuckets; ++idx) {
    const std::int64_t lo = LatencyHistogram::bucket_lower(idx);
    const std::int64_t next = LatencyHistogram::bucket_lower(idx + 1);
    ASSERT_LT(lo, next) << "idx " << idx;
    EXPECT_EQ(LatencyHistogram::bucket_index(lo), idx);
    EXPECT_EQ(LatencyHistogram::bucket_index(next - 1), idx);
    const std::int64_t rep = LatencyHistogram::bucket_value(idx);
    EXPECT_GE(rep, lo);
    EXPECT_LT(rep, next);
  }
  EXPECT_EQ(LatencyHistogram::bucket_index(0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_index(LatencyHistogram::kMaxValueNs),
            LatencyHistogram::kNumBuckets - 1);
}

TEST(SloHistogram, RepresentativeErrorIsBounded) {
  // The midpoint representative is within half a bucket width — 1/(2*kSub)
  // relative (~1.6 %) — of any value in the bucket. Unit buckets are exact.
  for (std::int64_t v = 0; v < 2 * LatencyHistogram::kSub; ++v) {
    EXPECT_EQ(
        LatencyHistogram::bucket_value(LatencyHistogram::bucket_index(v)), v);
  }
  sim::Rng rng(7);
  const double bound = 1.0 / (2.0 * LatencyHistogram::kSub);
  for (int i = 0; i < 20000; ++i) {
    const auto v = static_cast<std::int64_t>(
        rng.next_below(LatencyHistogram::kMaxValueNs));
    const std::int64_t rep =
        LatencyHistogram::bucket_value(LatencyHistogram::bucket_index(v));
    EXPECT_LE(std::abs(static_cast<double>(rep - v)),
              bound * static_cast<double>(v) + 0.5)
        << "v=" << v;
  }
}

TEST(SloHistogram, AddClampsOutOfRangeValues) {
  LatencyHistogram h;
  h.add(-5);                                     // clamps to 0
  h.add(LatencyHistogram::kMaxValueNs + 1'000);  // clamps to max
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_LE(h.max(), LatencyHistogram::kMaxValueNs);
}

TEST(SloHistogram, SummaryStatsAreExactIntegers) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum_lo(), 0u);
  EXPECT_EQ(h.percentile(99), 0);
  std::int64_t sum = 0;
  for (std::int64_t v : {1'000, 2'000, 3'000, 4'000}) {
    h.add(v);
    sum += v;
  }
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.min(), 1'000);
  EXPECT_EQ(h.max(), 4'000);
  // count and sum are exact even when buckets quantise.
  EXPECT_EQ(h.sum_lo(), static_cast<std::uint64_t>(sum));
  EXPECT_EQ(h.sum_hi(), 0u);
}

TEST(SloHistogram, PercentilesTrackExactOrderStatistics) {
  LatencyHistogram h;
  std::vector<std::int64_t> vals;
  sim::Rng rng(21);
  for (int i = 0; i < 100000; ++i) {
    // Log-uniform over 1 µs .. 1 s: exercises every octave the sim uses.
    const double u = rng.next_double();
    const auto v = static_cast<std::int64_t>(1e3 * std::pow(1e6, u));
    vals.push_back(v);
    h.add(v);
  }
  std::sort(vals.begin(), vals.end());
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(vals.size())));
    const double exact = static_cast<double>(vals[rank - 1]);
    EXPECT_NEAR(h.percentile(p), exact, exact / LatencyHistogram::kSub)
        << "p" << p;
  }
  EXPECT_EQ(h.percentile(0), vals.front());
  EXPECT_EQ(h.percentile(100), vals.back());
}

TEST(SloHistogram, Percentiles3EqualsThreePercentileCalls) {
  // One pass resolves all three ranks, several of them in one bucket when
  // values repeat (odd trials draw from four values).
  sim::Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    LatencyHistogram h;
    const int n = 1 + static_cast<int>(rng.next_below(3000));
    for (int i = 0; i < n; ++i) {
      h.add(trial % 2 == 1
                ? 1'000 * (1 + static_cast<std::int64_t>(rng.next_below(4)))
                : static_cast<std::int64_t>(rng.next_below(50'000'001)));
    }
    sim::Duration got[3];
    h.percentiles3(&got[0], &got[1], &got[2]);
    EXPECT_EQ(got[0], h.percentile(50.0)) << "trial " << trial;
    EXPECT_EQ(got[1], h.percentile(99.0)) << "trial " << trial;
    EXPECT_EQ(got[2], h.percentile(99.9)) << "trial " << trial;
  }
}

TEST(SloHistogram, CountAboveIsExactAtBucketBoundaries) {
  LatencyHistogram h;
  const std::int64_t threshold = sim::milliseconds(10);
  // bucket_lower(bucket_index(threshold)) == threshold for powers of two
  // times small factors? Not necessarily — use the bucket lower itself.
  const std::int64_t edge =
      LatencyHistogram::bucket_lower(LatencyHistogram::bucket_index(threshold));
  std::uint64_t above = 0;
  sim::Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const auto v =
        static_cast<std::int64_t>(rng.next_below(4 * threshold));
    h.add(v);
    // Everything in a bucket strictly after the edge's bucket is counted.
    if (LatencyHistogram::bucket_index(v) >
        LatencyHistogram::bucket_index(edge)) {
      ++above;
    }
  }
  EXPECT_EQ(h.count_above(edge), above);
  EXPECT_EQ(h.count_above(LatencyHistogram::kMaxValueNs), 0u);
}

// --- merge determinism ----------------------------------------------------

TEST(SloHistogram, MergeIsBitIdenticalToSerialInAnyOrderOrGrouping) {
  sim::Rng rng(42);
  std::vector<std::int64_t> stream;
  for (int i = 0; i < 50000; ++i) {
    stream.push_back(static_cast<std::int64_t>(rng.next_below(1'000'000'000)));
  }

  LatencyHistogram serial;
  for (std::int64_t v : stream) serial.add(v);

  for (int shards : {2, 3, 7}) {
    std::vector<LatencyHistogram> parts(static_cast<std::size_t>(shards));
    for (std::size_t i = 0; i < stream.size(); ++i) {
      parts[i % static_cast<std::size_t>(shards)].add(stream[i]);
    }
    // Merge in a shuffled order and pairwise-uneven grouping.
    std::vector<std::size_t> order(parts.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    LatencyHistogram merged;
    for (std::size_t i : order) merged.merge(parts[i]);
    EXPECT_TRUE(merged == serial) << shards << " shards";
    EXPECT_EQ(merged.digest(), serial.digest());
    EXPECT_EQ(merged.percentile(99.9), serial.percentile(99.9));
  }
}

TEST(SloHistogram, BulkZerosEqualZerosAddedOneByOne) {
  // The same values two ways: one by one, zeros wherever the random
  // interleaving puts them; and the non-zero values in order, the zeros
  // added in two add_zeros() calls at random points among them. Trial 0
  // adds nothing (the empty histogram), trial 1 only zeros.
  sim::Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    const std::uint64_t n = trial == 0 ? 0 : 1 + rng.next_below(300);
    const std::uint64_t zero_pct = trial == 1 ? 100 : rng.next_below(101);
    LatencyHistogram one_by_one;
    std::vector<std::int64_t> nonzero;
    std::uint64_t zeros = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (rng.next_below(100) < zero_pct) {
        one_by_one.add(0);
        ++zeros;
      } else {
        const auto v =
            static_cast<std::int64_t>(1 + rng.next_below(sim::seconds(2)));
        one_by_one.add(v);
        nonzero.push_back(v);
      }
    }
    const std::uint64_t first = rng.next_below(zeros + 1);
    std::size_t at[2] = {rng.next_below(nonzero.size() + 1),
                         rng.next_below(nonzero.size() + 1)};
    if (at[0] > at[1]) std::swap(at[0], at[1]);
    LatencyHistogram bulk;
    for (std::size_t i = 0; i <= nonzero.size(); ++i) {
      if (i == at[0]) bulk.add_zeros(first);
      if (i == at[1]) bulk.add_zeros(zeros - first);
      if (i < nonzero.size()) bulk.add(nonzero[i]);
    }

    EXPECT_TRUE(bulk == one_by_one);
    EXPECT_EQ(bulk.digest(), one_by_one.digest());
    EXPECT_EQ(bulk.count(), n);
    EXPECT_EQ(bulk.min(), one_by_one.min());
    EXPECT_EQ(bulk.max(), one_by_one.max());
    EXPECT_EQ(bulk.sum_lo(), one_by_one.sum_lo());
    EXPECT_EQ(bulk.sum_hi(), one_by_one.sum_hi());
    std::vector<std::pair<int, std::uint64_t>> want;
    std::vector<std::pair<int, std::uint64_t>> got;
    one_by_one.for_each_bucket(
        [&](int i, std::uint64_t c) { want.emplace_back(i, c); });
    bulk.for_each_bucket([&](int i, std::uint64_t c) { got.emplace_back(i, c); });
    EXPECT_EQ(got, want);
  }
}

TEST(SloHistogram, MergeOfADisjointRangeCoversBothRanges) {
  // merge() folds only o's occupied range. When that range lies wholly
  // above or below this one, the merged histogram must still equal the
  // union stream added to one histogram.
  const std::int64_t big = sim::milliseconds(50);
  LatencyHistogram low;
  low.add(1'000);
  low.add(2'000);
  LatencyHistogram high;
  high.add(big);
  LatencyHistogram serial;
  for (std::int64_t v : {std::int64_t{1'000}, std::int64_t{2'000}, big}) {
    serial.add(v);
  }
  LatencyHistogram up = low;
  up.merge(high);
  LatencyHistogram down = high;
  down.merge(low);
  LatencyHistogram from_empty;
  from_empty.merge(high);
  from_empty.merge(low);
  sim::Duration want[3];
  serial.percentiles3(&want[0], &want[1], &want[2]);
  for (const LatencyHistogram* m : {&up, &down, &from_empty}) {
    EXPECT_TRUE(*m == serial);
    EXPECT_EQ(m->digest(), serial.digest());
    EXPECT_EQ(m->count_above(sim::milliseconds(1)), 1u);
    EXPECT_EQ(m->percentile(50), serial.percentile(50));
    EXPECT_EQ(m->percentile(100), big);
    sim::Duration got[3];
    m->percentiles3(&got[0], &got[1], &got[2]);
    EXPECT_EQ(std::vector<sim::Duration>(got, got + 3),
              std::vector<sim::Duration>(want, want + 3));
  }
}

TEST(SloHistogram, ClearLeavesNoCountForTheNextFill) {
  // clear() zeroes only the occupied range, which must hold every count:
  // a bucket between the next fill's min and max starts from zero.
  LatencyHistogram h;
  for (std::int64_t v : {1'000, 5'000, 80'000, 1'000'000}) h.add(v);
  h.clear();
  EXPECT_TRUE(h == LatencyHistogram{});
  EXPECT_EQ(h.digest(), LatencyHistogram{}.digest());
  LatencyHistogram fresh;
  for (std::int64_t v : {1'000, 1'000'000}) {
    h.add(v);
    fresh.add(v);
  }
  EXPECT_TRUE(h == fresh);
  EXPECT_EQ(h.digest(), fresh.digest());
  int buckets = 0;
  h.for_each_bucket([&](int, std::uint64_t) { ++buckets; });
  EXPECT_EQ(buckets, 2);
  EXPECT_EQ(h.count_above(2'000), 1u);
  for (double p : {50.0, 75.0, 99.0}) {
    EXPECT_EQ(h.percentile(p), fresh.percentile(p)) << "p" << p;
  }
}

TEST(SloHistogram, DigestDistinguishesAndEmptyIsStable) {
  LatencyHistogram a;
  LatencyHistogram b;
  EXPECT_EQ(a.digest(), b.digest());
  a.add(1000);
  EXPECT_NE(a.digest(), b.digest());
  b.add(1001);  // different unit bucket
  EXPECT_NE(a.digest(), b.digest());
}

TEST(SloHistogram, MemoryIsBucketsNotSamples) {
  // 1e6 exact 8-byte samples would be 8 MB; the histogram must be at
  // least 10x smaller. Two inputs: a dense 1-51 us band, and latencies
  // spread over 1 us .. ~1 s so buckets across ~20 octaves fill.
  LatencyHistogram dense;
  for (int i = 0; i < 1'000'000; ++i) dense.add(1000 + (i % 50000));
  LatencyHistogram spread;
  std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
  for (int i = 0; i < 1'000'000; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    spread.add(static_cast<sim::Duration>(1000 + (lcg >> 34)));
  }
  for (const LatencyHistogram* h : {&dense, &spread}) {
    EXPECT_EQ(h->count(), 1'000'000u);
    EXPECT_LT(h->memory_bytes(), 8'000'000u / 10);
  }
}

// --- SloTracker windows ---------------------------------------------------

TEST(SloTracker, TumblingWindowsAlignAndSkipEmpty) {
  obs::SloTracker t;
  const std::size_t cls =
      t.add_class("jbb", {/*threshold=*/sim::milliseconds(10), 0.999});
  // Window 0: two fast requests. Window 1 empty. Window 2: one violation.
  t.record(cls, sim::milliseconds(5), sim::milliseconds(1));
  t.record(cls, sim::milliseconds(20), sim::milliseconds(2));
  t.record(cls, sim::milliseconds(70), sim::milliseconds(25));
  t.flush(sim::milliseconds(90));

  const obs::SloResult r = t.result();
  ASSERT_EQ(r.classes.size(), 1u);
  const obs::SloClassResult& c = r.classes[0];
  EXPECT_EQ(c.name, "jbb");
  EXPECT_EQ(c.total.count(), 3u);
  EXPECT_EQ(c.violations(), 1u);
  ASSERT_EQ(c.windows.size(), 2u);  // window 1 skipped
  EXPECT_EQ(c.windows[0].index, 0);
  EXPECT_EQ(c.windows[0].count, 2u);
  EXPECT_EQ(c.windows[0].violations, 0u);
  EXPECT_EQ(c.windows[1].index, 2);
  EXPECT_EQ(c.windows[1].count, 1u);
  EXPECT_EQ(c.windows[1].violations, 1u);
  // p50 of the single-sample window is its bucket representative.
  EXPECT_NEAR(static_cast<double>(c.windows[1].p50),
              static_cast<double>(sim::milliseconds(25)),
              static_cast<double>(sim::milliseconds(25)) /
                  LatencyHistogram::kSub);
  EXPECT_EQ(obs::burn_rate(c.windows[0], c.spec), 0.0);
  EXPECT_NEAR(obs::burn_rate(c.windows[1], c.spec), 1.0 / 0.001, 1e-9);
}

TEST(SloTracker, FlushIsIdempotentAndResultFoldsOpenWindow) {
  obs::SloTracker t;
  const std::size_t cls = t.add_class("ab", {sim::milliseconds(20), 0.999});
  t.record(cls, sim::milliseconds(10), sim::milliseconds(3));
  // result() before flush must still see the in-progress window...
  const obs::SloResult before = t.result();
  ASSERT_EQ(before.classes[0].windows.size(), 1u);
  EXPECT_EQ(before.classes[0].total.count(), 1u);
  // ...without mutating the tracker.
  t.flush(sim::milliseconds(40));
  const obs::SloResult after = t.result();
  t.flush(sim::milliseconds(50));  // second flush: no-op
  EXPECT_TRUE(t.result() == after);
  EXPECT_TRUE(before == after);
  EXPECT_EQ(after.digest(), before.digest());
}

TEST(SloTracker, WindowPercentilesAreWindowLocal) {
  // A hog burst in window 1 must not contaminate window 0's tail.
  obs::SloTracker t;
  const std::size_t cls = t.add_class("jbb", {sim::milliseconds(10), 0.999});
  for (int i = 0; i < 100; ++i) {
    t.record(cls, sim::milliseconds(1) + i * 100, sim::microseconds(400));
  }
  for (int i = 0; i < 100; ++i) {
    t.record(cls, sim::milliseconds(31) + i * 100, sim::milliseconds(50));
  }
  t.flush(sim::milliseconds(60));
  const obs::SloResult r = t.result();
  ASSERT_EQ(r.classes[0].windows.size(), 2u);
  EXPECT_LT(r.classes[0].windows[0].p999, sim::milliseconds(1));
  EXPECT_GT(r.classes[0].windows[1].p999, sim::milliseconds(40));
  EXPECT_EQ(r.classes[0].windows[0].violations, 0u);
  EXPECT_EQ(r.classes[0].windows[1].violations, 100u);
}

// --- serialization --------------------------------------------------------

obs::SloResult sample_result() {
  obs::SloTracker t;
  const std::size_t jbb = t.add_class("jbb", {sim::milliseconds(10), 0.999});
  const std::size_t ab = t.add_class("ab", {sim::milliseconds(20), 0.99});
  sim::Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    t.record(jbb, i * sim::microseconds(40),
             static_cast<sim::Duration>(rng.next_below(20'000'000)));
    t.record(ab, i * sim::microseconds(40),
             static_cast<sim::Duration>(rng.next_below(40'000'000)));
  }
  t.flush(sim::milliseconds(250));
  return t.result();
}

TEST(SloJson, RoundTripsBitIdentically) {
  const obs::SloResult s = sample_result();
  obs::JsonWriter w;
  obs::write_block(w, s);
  const std::string text = w.str();

  obs::JsonReader reader;
  obs::JsonValue v;
  ASSERT_TRUE(reader.parse(text, &v)) << reader.error();
  obs::SloResult parsed;
  std::string err;
  ASSERT_TRUE(obs::read_block(v, &parsed, &err)) << err;
  EXPECT_TRUE(parsed == s);
  EXPECT_EQ(parsed.digest(), s.digest());

  obs::JsonWriter w2;
  obs::write_block(w2, parsed);
  EXPECT_EQ(w2.str(), text);  // byte-identical re-serialization
}

TEST(SloJson, RejectsMalformedFields) {
  obs::JsonReader reader;
  obs::JsonValue v;
  obs::SloResult out;
  std::string err;
  ASSERT_TRUE(reader.parse("{\"classes\":[]}", &v));
  EXPECT_FALSE(obs::read_block(v, &out, &err));  // no window_ns
  ASSERT_TRUE(reader.parse(
      "{\"window_ns\":30000000,\"classes\":[{\"name\":\"x\"}]}", &v));
  EXPECT_FALSE(obs::read_block(v, &out, &err));
  EXPECT_FALSE(err.empty());

  // An inconsistent histogram: each row breaks one field of a class that
  // otherwise parses (two samples, 10 ns and 20 ns).
  const std::string hist =
      "\"count\":2,\"sum_lo\":30,\"sum_hi\":0,\"min_ns\":10,\"max_ns\":20,"
      "\"buckets\":[[10,1],[20,1]]";
  auto block = [](const std::string& h) {
    return "{\"window_ns\":30000000,\"classes\":[{\"name\":\"x\","
           "\"threshold_ns\":15,\"objective\":0.99," +
           h + ",\"windows\":[]}]}";
  };
  ASSERT_TRUE(reader.parse(block(hist), &v));
  ASSERT_TRUE(obs::read_block(v, &out, &err)) << err;
  EXPECT_EQ(out.classes[0].total.percentile(50), 10);
  for (const auto& [from, to, why] :
       {std::tuple{"\"min_ns\":10,\"max_ns\":20",
                   "\"min_ns\":999999,\"max_ns\":5", "min_ns > max_ns"},
        std::tuple{"\"count\":2", "\"count\":7", "sum of the buckets"},
        std::tuple{"[[10,1],[20,1]]", "[[20,1],[10,1]]", "ascending"},
        std::tuple{"[[10,1],[20,1]]", "[[10,1],[10,1]]", "ascending"},
        std::tuple{"[[10,1],[20,1]]", "[[5,1],[20,1]]", "outside"},
        std::tuple{"[[10,1],[20,1]]", "[[10,1],[21,1]]", "outside"}}) {
    SCOPED_TRACE(to);
    std::string bad = hist;
    bad.replace(bad.find(from), std::string(from).size(), to);
    ASSERT_TRUE(reader.parse(block(bad), &v));
    err.clear();
    EXPECT_FALSE(obs::read_block(v, &out, &err));
    EXPECT_NE(err.find("slo class"), std::string::npos) << err;
    EXPECT_NE(err.find(why), std::string::npos) << err;
  }
}

// --- end-to-end through the runner ---------------------------------------

exp::ScenarioConfig server_cfg(sim::Duration slo_window) {
  exp::ScenarioConfig cfg;
  cfg.fg = "specjbb";
  cfg.bg = "hog";
  cfg.n_inter = 2;
  cfg.strategy = core::Strategy::kIrs;
  cfg.server_duration = sim::milliseconds(400);
  cfg.slo_window = slo_window;
  return cfg;
}

TEST(SloEndToEnd, TrackingIsPassiveAndDeterministic) {
  // Same seed with SLO tracking off, on (default window), and on again:
  // every scheduling-visible metric must be bit-identical — recording is
  // passive — and the two tracked runs must produce identical SLO blocks.
  const exp::RunResult off = exp::run_scenario(server_cfg(-1));
  const exp::RunResult on1 = exp::run_scenario(server_cfg(0));
  const exp::RunResult on2 = exp::run_scenario(server_cfg(0));

  EXPECT_TRUE(off.slo.empty());
  EXPECT_EQ(off.slo_digest, 0u);
  ASSERT_FALSE(on1.slo.empty());
  EXPECT_EQ(on1.throughput, off.throughput);
  EXPECT_EQ(on1.lat_mean, off.lat_mean);
  EXPECT_EQ(on1.lat_p99, off.lat_p99);
  EXPECT_EQ(on1.fg_makespan, off.fg_makespan);
  EXPECT_TRUE(on1.slo == on2.slo);
  EXPECT_EQ(on1.slo_digest, on2.slo_digest);
  EXPECT_NE(on1.slo_digest, 0u);

  ASSERT_EQ(on1.slo.classes.size(), 1u);
  const obs::SloClassResult& c = on1.slo.classes[0];
  EXPECT_EQ(c.name, "jbb");
  EXPECT_EQ(on1.slo.window, obs::SloTracker::kDefaultWindow);
  EXPECT_GT(c.total.count(), 0u);
  EXPECT_FALSE(c.windows.empty());
  // The histogram saw exactly the completed transactions.
  std::uint64_t windowed = 0;
  for (const obs::SloWindow& win : c.windows) windowed += win.count;
  EXPECT_EQ(windowed, c.total.count());
}

TEST(SloEndToEnd, ResultJsonCarriesTheBlock) {
  const exp::RunResult r = exp::run_scenario(server_cfg(0));
  const std::string json = exp::result_json(r);
  EXPECT_NE(json.find("\"slo\":"), std::string::npos);
  EXPECT_NE(json.find("\"slo_digest\":"), std::string::npos);
  exp::RunResult parsed;
  std::string err;
  ASSERT_TRUE(exp::result_from_json(json, &parsed, &err)) << err;
  EXPECT_TRUE(parsed.slo == r.slo);
  EXPECT_TRUE(exp::results_identical(parsed, r));
  // And the non-server scenario has no block at all.
  exp::ScenarioConfig cpu = server_cfg(0);
  cpu.fg = "streamcluster";
  cpu.server_duration = 0;
  const exp::RunResult c = exp::run_scenario(cpu);
  EXPECT_TRUE(c.slo.empty());
  EXPECT_EQ(exp::result_json(c).find("\"slo\":"), std::string::npos);
}

TEST(SloEndToEnd, ServingGridFoldsIdenticallyThroughResultJsonInReverse) {
  // The fig08 grid: specjbb runs, then ab runs. Every run survives
  // result_json bit-exactly, and the parsed runs folded in reverse give
  // the same SLO block and digest as the runs folded forward — across
  // the two classes too, which the fold keeps in name order.
  const auto runs = exp::run_sweep(
      exp::figure_grid("fig08", {/*seeds=*/1, /*fast=*/true}), /*n_threads=*/4);
  std::vector<exp::RunResult> parsed(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE(i);
    std::string err;
    ASSERT_TRUE(
        exp::result_from_json(exp::result_json(runs[i]), &parsed[i], &err))
        << err;
    EXPECT_TRUE(exp::results_identical(runs[i], parsed[i]));
  }
  exp::SweepStats fwd;
  exp::SweepStats rev;
  for (const exp::RunResult& r : runs) fwd.add(r);
  for (auto it = parsed.rbegin(); it != parsed.rend(); ++it) rev.add(*it);
  const obs::SloResult slo = fwd.blocks().slo;
  ASSERT_EQ(slo.classes.size(), 2u);
  EXPECT_EQ(slo.classes[0].name, "ab");
  EXPECT_EQ(slo.classes[1].name, "jbb");
  EXPECT_TRUE(slo == rev.blocks().slo);
  EXPECT_EQ(fwd.blocks().slo_digest, rev.blocks().slo_digest);
}

}  // namespace
