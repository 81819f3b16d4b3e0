// Per-request causal forensics: exact latency decomposition, passivity,
// ring-wrap truncation accounting, JSON round-trips, fold determinism, and
// the end-to-end root-cause story (LHP dominates Baseline violations under
// hogs; IRS shifts the mass back to run/ready-wait).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/exp/report.h"
#include "src/exp/runner.h"
#include "src/exp/sweep.h"
#include "src/obs/attribution.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/forensics.h"
#include "src/obs/json.h"
#include "src/obs/json_reader.h"
#include "src/sim/rng.h"

namespace {

using namespace irs;

exp::ScenarioConfig forensics_cfg(const std::string& fg,
                                  core::Strategy strategy) {
  exp::ScenarioConfig cfg;
  cfg.fg = fg;
  cfg.bg = "hog";
  cfg.n_inter = 2;
  cfg.strategy = strategy;
  cfg.server_duration = sim::milliseconds(400);
  cfg.forensics = true;
  return cfg;
}

unsigned __int128 sum128(const obs::LatencyHistogram& h) {
  return (static_cast<unsigned __int128>(h.sum_hi()) << 64) | h.sum_lo();
}

// --- the exact-sum contract ------------------------------------------------

TEST(ForensicsEndToEnd, SegmentsSumExactlyToEndToEndLatency) {
  // For every (workload, strategy) arm: each cause histogram records one
  // value per completed span, and the per-cause sums add up bit-exactly to
  // the total latency the SLO tracker measured for the same requests. The
  // `untracked` remainder makes this exact by construction; this test
  // proves no segment is double-charged or leaked.
  for (const char* fg : {"specjbb", "ab"}) {
    for (const auto strategy :
         {core::Strategy::kBaseline, core::Strategy::kIrs}) {
      const exp::RunResult r = exp::run_scenario(forensics_cfg(fg, strategy));
      ASSERT_FALSE(r.forensics.empty()) << fg;
      ASSERT_EQ(r.trace_dropped, 0u) << fg << ": ring wrapped; enlarge";
      ASSERT_EQ(r.forensics.classes.size(), r.slo.classes.size());
      for (std::size_t i = 0; i < r.forensics.classes.size(); ++i) {
        const obs::ForensicsClassResult& c = r.forensics.classes[i];
        const obs::SloClassResult& s = r.slo.classes[i];
        EXPECT_EQ(c.name, s.name);
        EXPECT_EQ(c.truncated, 0u);
        EXPECT_EQ(c.spans, s.total.count()) << fg << "/" << c.name;
        unsigned __int128 causes_sum = 0;
        for (int k = 0; k < obs::kNumCauses; ++k) {
          EXPECT_EQ(c.causes[k].count(), c.spans)
              << fg << "/" << c.name << " cause "
              << obs::cause_name(static_cast<obs::Cause>(k));
          causes_sum += sum128(c.causes[k]);
        }
        const unsigned __int128 latency_sum = sum128(s.total);
        EXPECT_EQ(static_cast<std::uint64_t>(causes_sum),
                  static_cast<std::uint64_t>(latency_sum))
            << fg << "/" << c.name;
        EXPECT_EQ(static_cast<std::uint64_t>(causes_sum >> 64),
                  static_cast<std::uint64_t>(latency_sum >> 64))
            << fg << "/" << c.name;
        // Violating-window rows only ever cover violating requests.
        for (const obs::ForensicsWindow& w : c.windows) {
          EXPECT_GT(w.violations, 0u);
          EXPECT_GE(w.requests, w.violations);
        }
      }
    }
  }
}

// --- passivity -------------------------------------------------------------

TEST(ForensicsEndToEnd, InstrumentationIsPassiveAndDeterministic) {
  // Same seed with forensics off and on: every scheduling-visible field is
  // bit-identical (the request brackets and the analyzer only change trace
  // ring contents and the forensics fields). Two on-runs agree exactly.
  exp::ScenarioConfig off_cfg = forensics_cfg("specjbb", core::Strategy::kIrs);
  off_cfg.forensics = false;
  const exp::RunResult off = exp::run_scenario(off_cfg);
  const exp::RunResult on1 =
      exp::run_scenario(forensics_cfg("specjbb", core::Strategy::kIrs));
  const exp::RunResult on2 =
      exp::run_scenario(forensics_cfg("specjbb", core::Strategy::kIrs));

  EXPECT_TRUE(off.forensics.empty());
  EXPECT_EQ(off.forensics_digest, 0u);
  ASSERT_FALSE(on1.forensics.empty());
  EXPECT_NE(on1.forensics_digest, 0u);
  EXPECT_TRUE(on1.forensics == on2.forensics);
  EXPECT_EQ(on1.forensics_digest, on2.forensics_digest);

  // Mask the fields forensics is *allowed* to change (trace telemetry and
  // its own block), then require full bit-identity.
  exp::RunResult a = off;
  exp::RunResult b = on1;
  a.trace_dropped = b.trace_dropped = 0;
  a.trace_total_recorded = b.trace_total_recorded = 0;
  b.forensics = a.forensics;
  b.forensics_digest = a.forensics_digest;
  EXPECT_TRUE(exp::results_identical(a, b));
}

TEST(ForensicsEndToEnd, DumpCaptureKeepsTheForensicsRing) {
  // Forensics sizes the ring itself when the config leaves it at 0; a
  // dump must not swap in its smaller default. 20 s of specjbb fills more
  // than the dump default and less than the forensics one.
  exp::ScenarioConfig cfg =
      forensics_cfg("specjbb", core::Strategy::kBaseline);
  cfg.server_duration = sim::seconds(20);
  const exp::RunResult plain = exp::run_scenario(cfg);
  exp::TraceDump dump;
  const exp::RunResult dumped =
      exp::run_scenario(cfg, exp::RunCapture{.dump = &dump});
  EXPECT_EQ(plain.trace_dropped, 0u);
  EXPECT_EQ(dumped.trace_dropped, plain.trace_dropped);
  EXPECT_TRUE(dumped.forensics == plain.forensics);
  EXPECT_EQ(dumped.forensics_digest, plain.forensics_digest);
}

// Every server foreground, the front-end under each overload policy: SLO
// tracking and request-span capture together change nothing but their own
// blocks and the trace telemetry. The front-end runs the FrontendOverload
// fixture (8000/s into 4 workers, a 64-slot queue), so admission control
// and shedding engage; both must read the served class's SLO and the 30 ms
// window whether or not tracking is on.
struct ServerArm {
  const char* fg;
  const char* overload;  // front-end only
};

void PrintTo(const ServerArm& arm, std::ostream* os) {
  *os << arm.fg << (*arm.overload != '\0' ? " " : "") << arm.overload;
}

class ServingPassivity : public ::testing::TestWithParam<ServerArm> {};

TEST_P(ServingPassivity, SloAndForensicsChangeOnlyTheirBlocks) {
  const ServerArm arm = GetParam();
  exp::ScenarioConfig cfg = forensics_cfg(arm.fg, core::Strategy::kIrs);
  if (cfg.fg == "frontend") {
    cfg.bg = "";
    cfg.seed = 21;
    cfg.fe_rate_hz = 8000.0;
    cfg.fe_queue_cap = 64;
    cfg.fe_overload = arm.overload;
  }
  exp::ScenarioConfig off_cfg = cfg;
  off_cfg.slo_window = -1;
  off_cfg.forensics = false;
  exp::ScenarioConfig on_cfg = cfg;
  on_cfg.slo_window = 0;
  on_cfg.forensics = true;
  const exp::RunResult off = exp::run_scenario(off_cfg);
  const exp::RunResult on = exp::run_scenario(on_cfg);

  ASSERT_TRUE(off.finished);
  EXPECT_TRUE(off.slo.empty());
  EXPECT_TRUE(off.forensics.empty());
  ASSERT_FALSE(on.slo.empty());
  ASSERT_FALSE(on.forensics.empty());
  const std::string policy = arm.overload;
  if (policy == "admit") {
    EXPECT_GT(on.frontend.admit_rejected, 0u);
  } else if (policy == "shed") {
    EXPECT_GT(on.frontend.shed, 0u);
  }

  // Mask what the instrumentation is allowed to change, then require
  // every other field to match.
  exp::RunResult a = off;
  a.trace_dropped = on.trace_dropped;
  a.trace_total_recorded = on.trace_total_recorded;
  a.slo = on.slo;
  a.slo_digest = on.slo_digest;
  a.forensics = on.forensics;
  a.forensics_digest = on.forensics_digest;
  EXPECT_TRUE(exp::results_identical(a, on));
}

INSTANTIATE_TEST_SUITE_P(
    AllServers, ServingPassivity,
    ::testing::Values(ServerArm{"specjbb", ""}, ServerArm{"ab", ""},
                      ServerArm{"frontend", "drop"},
                      ServerArm{"frontend", "admit"},
                      ServerArm{"frontend", "shed"}),
    [](const ::testing::TestParamInfo<ServerArm>& info) {
      const std::string overload = info.param.overload;
      return std::string(info.param.fg) +
             (overload.empty() ? "" : "_" + overload);
    });

// --- determinism across engine backends and thread counts ------------------

TEST(ForensicsEndToEnd, BitIdenticalAcrossQueueBackendsBatchesAndThreads) {
  // The forensics block (and the whole result line) must be a pure function
  // of (config, seed): the event-queue backend and the sweep pool's thread
  // count are implementation details that may not leak into the JSON.
  std::vector<exp::ScenarioConfig> grid;
  for (std::uint64_t seed : {1ull, 7ull}) {
    exp::ScenarioConfig cfg = forensics_cfg("specjbb", core::Strategy::kIrs);
    cfg.server_duration = sim::milliseconds(200);
    cfg.seed = seed;
    grid.push_back(cfg);
  }

  auto render = [](const std::vector<exp::RunResult>& rs) {
    std::string s;
    for (const exp::RunResult& r : rs) s += exp::result_json(r) + "\n";
    return s;
  };

  const std::string reference = render(exp::run_sweep(grid, /*n_threads=*/1));
  EXPECT_NE(reference.find("\"forensics\""), std::string::npos);

  for (const auto queue :
       {sim::QueueKind::kBinaryHeap, sim::QueueKind::kQuadHeap,
        sim::QueueKind::kHybridWheel}) {
    auto g = grid;
    for (auto& cfg : g) cfg.queue = queue;
    for (const int threads : {1, 4}) {
      EXPECT_EQ(render(exp::run_sweep(g, threads)), reference)
          << "queue " << static_cast<int>(queue) << " threads " << threads;
    }
  }
}

// --- ring-wrap truncation --------------------------------------------------

TEST(ForensicsTruncation, WrappedSpansAreReportedNeverCharged) {
  // Fuzz the ring capacity for every server foreground: spans live in the
  // side log and never drop, but when the wrap eats the scheduler evidence
  // under a span (it began before the oldest retained ring record), the
  // span must be counted in `truncated` — and never charged into any cause
  // histogram (every cause count stays equal to `spans`). A run with a dump
  // analyses the records it writes out; the same run without one analyses
  // the ring in place, and both must give the same block bit-for-bit.
  // Attribution, forensics and the exporter's truncation marker must all
  // put the head at that oldest ring record.
  sim::Rng rng(2026);
  for (const char* fg : {"specjbb", "ab", "frontend"}) {
    SCOPED_TRACE(fg);
    exp::ScenarioConfig cfg = forensics_cfg(fg, core::Strategy::kIrs);
    cfg.server_duration = sim::milliseconds(200);
    // Capacities below a third of what the run records always wrap.
    const std::uint64_t recorded = exp::run_scenario(cfg).trace_total_recorded;
    ASSERT_GT(recorded, 3u * 256u);
    bool saw_truncation = false;
    for (int iter = 0; iter < 5; ++iter) {
      const std::size_t capacity = 128 + rng.next_below(recorded / 3 - 128);
      cfg.trace_capacity = capacity;
      exp::TraceDump dump;
      const exp::RunResult r1 =
          exp::run_scenario(cfg, exp::RunCapture{.dump = &dump});
      const exp::RunResult r2 = exp::run_scenario(cfg);
      ASSERT_TRUE(r1.forensics == r2.forensics) << "capacity " << capacity;
      ASSERT_EQ(r1.forensics_digest, r2.forensics_digest);
      ASSERT_GT(r1.trace_dropped, 0u) << "capacity " << capacity
                                      << " did not wrap; shrink the fuzz range";
      // The oldest retained ring record: the first one the span log did not
      // synthesize.
      sim::Time oldest = -1;
      for (const sim::TraceRecord& rec : dump.records) {
        if (rec.kind != sim::TraceKind::kReqBegin &&
            rec.kind != sim::TraceKind::kReqEnd) {
          oldest = rec.when;
          break;
        }
      }
      ASSERT_GE(oldest, 0) << "capacity " << capacity;
      EXPECT_EQ(r1.forensics.head_truncated_at, oldest)
          << "capacity " << capacity;
      EXPECT_EQ(obs::attribute(dump.records, dump.meta).head_truncated_at,
                oldest)
          << "capacity " << capacity;
      obs::JsonWriter head_us;  // the exporter's compact number format
      head_us.value(sim::to_us(oldest));
      EXPECT_NE(obs::chrome_trace_json(dump.records, dump.meta, {})
                    .find("\"head_us\":" + head_us.str() + ","),
                std::string::npos)
          << "capacity " << capacity;
      std::uint64_t truncated = 0;
      for (const obs::ForensicsClassResult& c : r1.forensics.classes) {
        truncated += c.truncated;
        for (int k = 0; k < obs::kNumCauses; ++k) {
          EXPECT_EQ(c.causes[k].count(), c.spans)
              << "capacity " << capacity << " cause "
              << obs::cause_name(static_cast<obs::Cause>(k));
        }
        // Retained spans can never exceed what the SLO tracker (which does
        // not ride the ring) saw complete.
        ASSERT_FALSE(r1.slo.empty());
        const obs::SloClassResult* s = nullptr;
        for (const obs::SloClassResult& sc : r1.slo.classes) {
          if (sc.name == c.name) s = &sc;
        }
        ASSERT_NE(s, nullptr);
        EXPECT_LE(c.spans + c.truncated, s->total.count());
      }
      saw_truncation = saw_truncation || truncated > 0;
    }
    // Across the fuzz range at least one capacity must actually have cut a
    // span in half — otherwise the test proves nothing.
    EXPECT_TRUE(saw_truncation);
  }
}

// --- serialization ---------------------------------------------------------

TEST(ForensicsJson, RoundTripsBitIdentically) {
  const exp::RunResult r =
      exp::run_scenario(forensics_cfg("ab", core::Strategy::kBaseline));
  ASSERT_FALSE(r.forensics.empty());

  obs::JsonWriter w;
  obs::write_block(w, r.forensics);
  const std::string text = w.str();

  obs::JsonReader reader;
  obs::JsonValue v;
  ASSERT_TRUE(reader.parse(text, &v)) << reader.error();
  obs::ForensicsResult parsed;
  std::string err;
  ASSERT_TRUE(obs::read_block(v, &parsed, &err)) << err;
  EXPECT_TRUE(parsed == r.forensics);
  EXPECT_EQ(parsed.digest(), r.forensics.digest());

  obs::JsonWriter w2;
  obs::write_block(w2, parsed);
  EXPECT_EQ(w2.str(), text);  // byte-identical re-serialization
}

TEST(ForensicsJson, ResultJsonCarriesTheBlockAndRoundTrips) {
  const exp::RunResult r =
      exp::run_scenario(forensics_cfg("specjbb", core::Strategy::kBaseline));
  const std::string json = exp::result_json(r);
  EXPECT_NE(json.find("\"forensics\":"), std::string::npos);
  EXPECT_NE(json.find("\"forensics_digest\":"), std::string::npos);
  exp::RunResult parsed;
  std::string err;
  ASSERT_TRUE(exp::result_from_json(json, &parsed, &err)) << err;
  EXPECT_TRUE(parsed.forensics == r.forensics);
  EXPECT_TRUE(exp::results_identical(parsed, r));
  EXPECT_EQ(exp::result_json(parsed), json);

  // Disabled runs carry no block (only its zero digest).
  exp::ScenarioConfig off = forensics_cfg("specjbb", core::Strategy::kBaseline);
  off.forensics = false;
  const exp::RunResult plain = exp::run_scenario(off);
  EXPECT_EQ(exp::result_json(plain).find("\"forensics\":"),
            std::string::npos);
}

TEST(ForensicsJson, RejectsMalformedFields) {
  obs::JsonReader reader;
  obs::JsonValue v;
  obs::ForensicsResult out;
  std::string err;
  ASSERT_TRUE(reader.parse("{\"classes\":[]}", &v));
  EXPECT_FALSE(obs::read_block(v, &out, &err));  // no window_ns
  ASSERT_TRUE(reader.parse(
      "{\"window_ns\":30000000,\"head_truncated_at\":-1,"
      "\"classes\":[{\"name\":\"x\"}]}",
      &v));
  EXPECT_FALSE(obs::read_block(v, &out, &err));
  EXPECT_FALSE(err.empty());

  // An inconsistent cause histogram: each row breaks one field of a block
  // that otherwise parses (two requests, 10 ns and 20 ns of run time).
  const std::string hist =
      "\"count\":2,\"sum_lo\":30,\"sum_hi\":0,\"min_ns\":10,\"max_ns\":20,"
      "\"buckets\":[[10,1],[20,1]]";
  auto block = [](const std::string& h) {
    return "{\"window_ns\":30000000,\"head_truncated_at\":-1,"
           "\"classes\":[{\"name\":\"x\",\"threshold_ns\":15,"
           "\"objective\":0.99,\"spans\":2,\"truncated\":0,\"open\":0,"
           "\"causes\":[{\"name\":\"run\"," +
           h + "}],\"windows\":[]}]}";
  };
  ASSERT_TRUE(reader.parse(block(hist), &v));
  ASSERT_TRUE(obs::read_block(v, &out, &err)) << err;
  EXPECT_EQ(out.classes[0].cause_total(obs::Cause::kRun), 30);
  for (const auto& [from, to, why] :
       {std::tuple{"\"min_ns\":10,\"max_ns\":20",
                   "\"min_ns\":999999,\"max_ns\":5", "min_ns > max_ns"},
        std::tuple{"\"count\":2", "\"count\":7", "sum of the buckets"},
        std::tuple{"[[10,1],[20,1]]", "[[20,1],[10,1]]", "ascending"},
        std::tuple{"[[10,1],[20,1]]", "[[10,1],[10,1]]", "ascending"}}) {
    SCOPED_TRACE(to);
    std::string bad = hist;
    bad.replace(bad.find(from), std::string(from).size(), to);
    ASSERT_TRUE(reader.parse(block(bad), &v));
    err.clear();
    EXPECT_FALSE(obs::read_block(v, &out, &err));
    EXPECT_NE(err.find("forensics cause 'run'"), std::string::npos) << err;
    EXPECT_NE(err.find(why), std::string::npos) << err;
  }
}

// --- offline replay --------------------------------------------------------

TEST(ForensicsReplay, OfflineReplayMatchesTheInRunBlock) {
  // Every server foreground: a run that only records (no in-run analysis)
  // and dumps its trace, replayed offline, must reproduce exactly the
  // block and digest the in-run analyzer computes for the same config.
  for (const char* fg : {"specjbb", "ab", "frontend"}) {
    SCOPED_TRACE(fg);
    exp::ScenarioConfig cfg = forensics_cfg(fg, core::Strategy::kBaseline);
    const exp::RunResult in_run = exp::run_scenario(cfg);
    ASSERT_FALSE(in_run.forensics.empty());

    cfg.forensics_analyze = false;
    exp::TraceDump dump;
    const exp::RunResult recorded =
        exp::run_scenario(cfg, exp::RunCapture{.dump = &dump});
    EXPECT_TRUE(recorded.forensics.empty());
    ASSERT_FALSE(dump.records.empty());

    const obs::ForensicsResult replay =
        obs::request_forensics(dump.records, dump.meta, dump.slo);
    EXPECT_TRUE(replay == in_run.forensics);
    EXPECT_EQ(replay.digest(), in_run.forensics_digest);
  }
}

// --- the merge cursor --------------------------------------------------------

// A hand-built foreground (vCPUs 0 and 1, tasks 101..103) whose span log
// has every tie shape the bracket order settles. Times are in µs.
struct CursorFixture {
  sim::Trace trace;
  std::vector<obs::ReqSpan> spans;
  obs::TraceMeta meta;
  obs::SloResult slo;
};

CursorFixture cursor_fixture(std::size_t capacity) {
  using K = sim::TraceKind;
  const auto us = [](std::int64_t n) { return sim::microseconds(n); };
  CursorFixture f;
  f.trace.set_capacity(capacity);
  const std::tuple<std::int64_t, K, int, int, const char*> ring[] = {
      {10, K::kHvSchedule, 0, 0, ""},    {10, K::kGuestSwitch, 0, 101, ""},
      {20, K::kHvSchedule, 1, 1, ""},    {20, K::kGuestSwitch, 1, 102, ""},
      {30, K::kHvPreempt, 0, 0, ""},     {40, K::kHvSchedule, 0, 0, ""},
      {50, K::kGuestSwitch, 1, 103, ""}, {60, K::kGuestWake, 102, 1, ""},
      {70, K::kGuestSwitch, 1, 102, ""}, {80, K::kHvPreempt, 1, 1, "throttle"},
      {90, K::kHvSchedule, 1, 1, ""}};
  for (const auto& [t, kind, a, b, note] : ring) {
    f.trace.record(us(t), kind, a, b, note);
  }
  // In completion order, as wl::Serving appends.
  f.spans = {
      // Begin and end at one instant, tied with two ring records.
      {us(20), us(20), 1, 0, 102, 0},
      // ab-style: back-dated ahead of the oldest ring record, and ending
      // at the instant of a ring record.
      {us(5), us(30), 0, 0, 101, 0},
      // Two begins at one instant, tied with a ring record.
      {us(40), us(60), 2, 0, 101, 0},
      {us(40), us(70), 3, 0, 103, 0},
      // Front-end: arrived at 45, queued 10, served from 55.
      {us(45), us(90), 4, 0, 102, us(10)}};
  f.meta.vcpus = {{0, "fg", 0}, {1, "fg", 1}};
  f.meta.tasks = {{101, "fg", "w0"}, {102, "fg", "w1"}, {103, "fg", "w2"}};
  f.meta.end = us(100);
  f.meta.dropped = f.trace.dropped();
  f.meta.total_recorded = f.trace.total_recorded();
  // Window 0 ([0, 50 µs)) burns its budget twice over; window 1 is calm.
  f.slo.window = us(50);
  obs::SloClassResult cls;
  cls.name = "req";
  cls.spec = obs::SloSpec{us(15), 0.5};
  cls.windows = {obs::SloWindow{0, 2, 2, 0, 0, 0},
                 obs::SloWindow{1, 3, 0, 0, 0, 0}};
  f.slo.classes.push_back(cls);
  return f;
}

struct Step {
  std::int64_t us;
  sim::TraceKind kind;
  int a;
};

/// Every record of the fixture, ring first on ties, each begin ahead of
/// its own end, equal begins in span order.
std::vector<Step> expected_order() {
  using K = sim::TraceKind;
  return {{5, K::kReqBegin, 0},    {10, K::kHvSchedule, 0},
          {10, K::kGuestSwitch, 0}, {20, K::kHvSchedule, 1},
          {20, K::kGuestSwitch, 1}, {20, K::kReqBegin, 1},
          {20, K::kReqEnd, 1},      {30, K::kHvPreempt, 0},
          {30, K::kReqEnd, 0},      {40, K::kHvSchedule, 0},
          {40, K::kReqBegin, 2},    {40, K::kReqBegin, 3},
          {50, K::kGuestSwitch, 1}, {55, K::kReqBegin, 4},
          {60, K::kGuestWake, 102}, {60, K::kReqEnd, 2},
          {70, K::kGuestSwitch, 1}, {70, K::kReqEnd, 3},
          {80, K::kHvPreempt, 1},   {90, K::kHvSchedule, 1},
          {90, K::kReqEnd, 4}};
}

/// The cursor's output must be `want`, and with_request_spans() over the
/// ring's snapshot the same records, the wait as a decimal note.
void expect_merge(const CursorFixture& f, const std::vector<Step>& want) {
  std::vector<std::pair<sim::TraceRecord, sim::Duration>> got;
  obs::SpanMerge cursor(f.trace.view(), f.spans);
  sim::Duration qwait = -1;
  while (const sim::TraceRecord* r = cursor.next(&qwait)) {
    got.emplace_back(*r, qwait);
  }
  const std::vector<sim::TraceRecord> merged =
      obs::with_request_spans(f.trace.snapshot(), f.spans);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(merged.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    const auto& [r, wait] = got[i];
    EXPECT_EQ(r.when, sim::microseconds(want[i].us));
    EXPECT_EQ(r.kind, want[i].kind);
    EXPECT_EQ(r.a, want[i].a);
    const bool fe_begin = r.kind == sim::TraceKind::kReqBegin && r.a == 4;
    EXPECT_EQ(wait, fe_begin ? sim::microseconds(10) : 0);
    const sim::TraceRecord& m = merged[i];
    EXPECT_EQ(m.when, r.when);
    EXPECT_EQ(m.kind, r.kind);
    EXPECT_EQ(m.a, r.a);
    EXPECT_EQ(m.b, r.b);
    EXPECT_EQ(m.c, r.c);
    EXPECT_EQ(std::string(m.note.c_str()),
              fe_begin ? std::to_string(wait) : std::string(r.note.c_str()));
  }
}

TEST(ForensicsCursor, OneBracketOrderInPlaceAndMaterialised) {
  for (const bool wrapped : {false, true}) {
    SCOPED_TRACE(wrapped ? "wrapped" : "unwrapped");
    // 8 slots keep the newest 8 of 11 records: the oldest retained one is
    // at 20 µs, and the ring's two segments split at 70 µs.
    const CursorFixture f = cursor_fixture(wrapped ? 8 : 64);
    ASSERT_EQ(f.trace.dropped(), wrapped ? 3u : 0u);
    std::vector<Step> want = expected_order();
    if (wrapped) want.erase(want.begin() + 1, want.begin() + 4);
    expect_merge(f, want);

    // A log whose ends are not in completion order merges the same way:
    // swapping spans 2 and 3 swaps only their begins' tie at 40 µs.
    CursorFixture swapped = f;
    std::swap(swapped.spans[2], swapped.spans[3]);
    std::vector<Step> swapped_want = want;
    const auto b2 = std::find_if(want.begin(), want.end(), [](const Step& s) {
      return s.kind == sim::TraceKind::kReqBegin && s.a == 2;
    });
    std::iter_swap(swapped_want.begin() + (b2 - want.begin()),
                   swapped_want.begin() + (b2 - want.begin()) + 1);
    expect_merge(swapped, swapped_want);

    // In place and written out, the analysis reads one stream.
    const obs::ForensicsResult in_place =
        obs::request_forensics(f.trace.view(), f.spans, f.meta, f.slo);
    const std::vector<sim::TraceRecord> merged =
        obs::with_request_spans(f.trace.snapshot(), f.spans);
    const obs::ForensicsResult materialised =
        obs::request_forensics(merged, f.meta, f.slo);
    EXPECT_TRUE(in_place == materialised);
    EXPECT_EQ(in_place.digest(), materialised.digest());
    EXPECT_EQ(in_place.head_truncated_at, obs::retained_head(merged, f.meta));
    EXPECT_EQ(in_place.head_truncated_at,
              wrapped ? sim::microseconds(20) : -1);
    ASSERT_EQ(in_place.classes.size(), 1u);
    const obs::ForensicsClassResult& c = in_place.classes[0];
    // The back-dated span began before the head once the ring wrapped.
    EXPECT_EQ(c.truncated, wrapped ? 1u : 0u);
    EXPECT_EQ(c.spans, wrapped ? 4u : 5u);
    EXPECT_EQ(c.cause_total(obs::Cause::kQueueWait), sim::microseconds(10));
    ASSERT_EQ(c.windows.size(), 1u);
    EXPECT_EQ(c.windows[0].index, 0);
  }
}

// --- sweep fold ------------------------------------------------------------

TEST(ForensicsFold, FoldIsOrderIndependentAndExact) {
  // Three specjbb seeds and one ab run: the fold must also be
  // order-independent across classes.
  std::vector<exp::RunResult> runs;
  for (const auto& [fg, seed] :
       {std::pair{"specjbb", 1}, {"specjbb", 5}, {"specjbb", 9}, {"ab", 1}}) {
    exp::ScenarioConfig cfg = forensics_cfg(fg, core::Strategy::kIrs);
    cfg.server_duration = sim::milliseconds(200);
    cfg.seed = static_cast<std::uint64_t>(seed);
    runs.push_back(exp::run_scenario(cfg));
  }
  obs::ForensicsResult fwd;
  for (const exp::RunResult& r : runs) obs::fold_block(fwd, r.forensics);
  obs::ForensicsResult rev;
  for (auto it = runs.rbegin(); it != runs.rend(); ++it) {
    obs::fold_block(rev, it->forensics);
  }
  ASSERT_EQ(fwd.classes.size(), 2u);
  EXPECT_TRUE(fwd == rev);
  EXPECT_EQ(fwd.digest(), rev.digest());

  // The fold preserves the exact-sum contract: folded cause sums equal the
  // sum of the per-run cause sums.
  unsigned __int128 folded = 0;
  unsigned __int128 serial = 0;
  for (const obs::ForensicsClassResult& c : fwd.classes) {
    for (int k = 0; k < obs::kNumCauses; ++k) folded += sum128(c.causes[k]);
  }
  for (const exp::RunResult& r : runs) {
    for (const obs::ForensicsClassResult& c : r.forensics.classes) {
      for (int k = 0; k < obs::kNumCauses; ++k) serial += sum128(c.causes[k]);
    }
  }
  EXPECT_EQ(static_cast<std::uint64_t>(folded),
            static_cast<std::uint64_t>(serial));
  EXPECT_EQ(static_cast<std::uint64_t>(folded >> 64),
            static_cast<std::uint64_t>(serial >> 64));
}

// --- the root-cause story --------------------------------------------------

TEST(ForensicsRootCause, LhpDominatesBaselineViolationsIrsShiftsToRun) {
  // Fixed-seed fig08-shaped scenario with the SPECjbb critical section
  // cranked: every transaction holds the shared structure for 300 µs under
  // a ticket *spinlock*, so waiters burn CPU instead of yielding their
  // vCPU — the kernel-spinlock shape the paper's LHP/LWP pathology needs
  // (blocking-mutex waiters idle their vCPU, which turns holder handoff
  // into plain runqueue wait). Under Baseline, the forensic verdict for
  // SLO-violating windows must rank LHP/LWP as the dominant cause; under
  // IRS the lock-preemption causes must collapse and the latency mass
  // shift to run/ready-wait.
  auto arm = [](core::Strategy strategy) {
    exp::ScenarioConfig cfg;
    cfg.fg = "specjbb";
    cfg.bg = "hog";
    cfg.n_inter = 4;
    cfg.strategy = strategy;
    cfg.server_duration = sim::seconds(1);
    cfg.forensics = true;
    cfg.jbb_cs_spin = true;
    cfg.seed = 1;
    return exp::run_scenario(cfg);
  };
  const exp::RunResult base = arm(core::Strategy::kBaseline);
  const exp::RunResult irs = arm(core::Strategy::kIrs);
  ASSERT_FALSE(base.forensics.empty());
  ASSERT_FALSE(irs.forensics.empty());
  const obs::ForensicsClassResult& bc = base.forensics.classes.front();
  const obs::ForensicsClassResult& ic = irs.forensics.classes.front();
  ASSERT_FALSE(bc.windows.empty()) << "Baseline has no violating windows";

  // Rank causes over Baseline's violating windows: lock-holder/waiter
  // preemption must explain more of the violating latency than any other
  // single cause.
  sim::Duration win[obs::kNumCauses] = {};
  for (const obs::ForensicsWindow& w : bc.windows) {
    for (int k = 0; k < obs::kNumCauses; ++k) win[k] += w.causes[k];
  }
  const sim::Duration lock_stall =
      win[static_cast<int>(obs::Cause::kLhp)] +
      win[static_cast<int>(obs::Cause::kLwp)];
  for (int k = 0; k < obs::kNumCauses; ++k) {
    const auto cause = static_cast<obs::Cause>(k);
    if (cause == obs::Cause::kLhp || cause == obs::Cause::kLwp) continue;
    EXPECT_GE(lock_stall, win[k])
        << "Baseline violating windows not LHP/LWP-dominated (lost to "
        << obs::cause_name(cause) << ")";
  }
  EXPECT_GT(lock_stall, 0);

  // IRS retires the lock-preemption causes (the SA protocol keeps lock
  // holders running or migrates waiters off frozen vCPUs)...
  EXPECT_EQ(ic.cause_total(obs::Cause::kLhp), 0);
  EXPECT_EQ(ic.cause_total(obs::Cause::kLwp), 0);
  // ...and the share of latency spent actually computing (run + guest-side
  // ready-wait) rises.
  auto share = [](const obs::ForensicsClassResult& c, obs::Cause x,
                  obs::Cause y) {
    std::int64_t grand = 0;
    for (int k = 0; k < obs::kNumCauses; ++k) {
      grand += c.cause_total(static_cast<obs::Cause>(k));
    }
    const std::int64_t num = c.cause_total(x) + c.cause_total(y);
    return grand > 0 ? static_cast<double>(num) / static_cast<double>(grand)
                     : 0.0;
  };
  EXPECT_GT(share(ic, obs::Cause::kRun, obs::Cause::kReadyWait),
            share(bc, obs::Cause::kRun, obs::Cause::kReadyWait));
}

}  // namespace
