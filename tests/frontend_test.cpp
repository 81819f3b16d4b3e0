// Open-loop traffic front-end tests (src/wl/frontend.h, src/wl/arrivals.h,
// src/obs/frontend_stats.h):
//
//   * property tests for the arrival generators — interarrival moments
//     against the closed forms, the diurnal integral against
//     expected_count, MMPP overdispersion, and per-seed determinism;
//   * scenario-level determinism — the "frontend" workload's results are
//     bit-identical across reruns, event-queue backends, sweep thread
//     counts, and a regrouped fold (digest-XOR order independence);
//   * the overload fault matrix — queue-full x {drop, admit, shed} x
//     keepalive {on, off}, asserting the conservation identity
//     arrivals == completed + dropped + shed + in_flight, the per-policy
//     refusal counters, and that refusals land in the SLO drop/shed
//     classes as error-budget burn;
//   * the frontend JSON block — byte-identical round-trip, malformed
//     rejection, a pinned golden fixture (regenerate with
//     IRS_REGEN_GOLDEN=1), and the exact order-independent fold;
//   * forensics integration — the accept-queue wait of completed requests
//     is charged to Cause::kQueueWait, exactly equal to the ledger's
//     queue_wait_total.
#include "src/wl/frontend.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/exp/runner.h"
#include "src/exp/stats.h"
#include "src/exp/sweep.h"
#include "src/obs/forensics.h"
#include "src/obs/frontend_stats.h"
#include "src/obs/json.h"
#include "src/obs/json_reader.h"
#include "src/obs/slo.h"
#include "src/sim/rng.h"
#include "src/wl/arrivals.h"

namespace irs {
namespace {

// ---------------------------------------------------------------------------
// Arrival-process properties
// ---------------------------------------------------------------------------

/// Mean and squared coefficient of variation of `n` gaps.
struct GapMoments {
  double mean_sec = 0.0;
  double cv2 = 0.0;
};

GapMoments gap_moments(wl::ArrivalProcess& p, sim::Rng& rng, int n) {
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = sim::to_sec(p.next_gap(rng));
    sum += g;
    sum2 += g * g;
  }
  GapMoments m;
  m.mean_sec = sum / n;
  const double var = sum2 / n - m.mean_sec * m.mean_sec;
  m.cv2 = var / (m.mean_sec * m.mean_sec);
  return m;
}

TEST(Arrivals, PoissonMomentsMatchClosedForm) {
  wl::ArrivalConfig cfg;
  cfg.kind = wl::ArrivalKind::kPoisson;
  cfg.rate_hz = 2000.0;
  wl::ArrivalProcess p(cfg);
  sim::Rng rng(11);
  constexpr int kN = 200000;
  const GapMoments m = gap_moments(p, rng, kN);
  // Exponential gaps: mean 1/rate, cv^2 = 1. 200k samples put the standard
  // error well under the tolerances.
  EXPECT_NEAR(m.mean_sec, 1.0 / cfg.rate_hz, 0.02 / cfg.rate_hz);
  EXPECT_NEAR(m.cv2, 1.0, 0.05);
  // expected_count is the exact integral.
  EXPECT_DOUBLE_EQ(p.expected_count(sim::seconds(3)), 3.0 * cfg.rate_hz);
}

TEST(Arrivals, MmppMatchesStationaryRateAndIsOverdispersed) {
  wl::ArrivalConfig cfg;
  cfg.kind = wl::ArrivalKind::kMmpp;
  cfg.rate_hz = 1000.0;  // burst defaults to 4x
  cfg.calm_dwell_mean = sim::milliseconds(200);
  cfg.burst_dwell_mean = sim::milliseconds(50);
  wl::ArrivalProcess p(cfg);
  // Stationary rate: dwell-weighted mix of the two states.
  const double stationary = (1000.0 * 0.200 + 4000.0 * 0.050) / 0.250;
  EXPECT_DOUBLE_EQ(p.expected_count(sim::seconds(1)), stationary);
  sim::Rng rng(12);
  // Long-run empirical rate over many modulating cycles (~240 dwell pairs
  // in 60 s) converges on the stationary mix; the state switching makes
  // the gap stream overdispersed relative to Poisson (cv^2 > 1).
  const sim::Duration horizon = sim::seconds(60);
  sim::Duration t = 0;
  std::uint64_t count = 0;
  double sum = 0.0, sum2 = 0.0;
  while (true) {
    const sim::Duration g = p.next_gap(rng);
    if (t + g >= horizon) break;
    t += g;
    ++count;
    const double gs = sim::to_sec(g);
    sum += gs;
    sum2 += gs * gs;
  }
  const double rate = static_cast<double>(count) / sim::to_sec(horizon);
  EXPECT_NEAR(rate, stationary, 0.10 * stationary);
  const double mean = sum / static_cast<double>(count);
  const double cv2 = (sum2 / static_cast<double>(count) - mean * mean) /
                     (mean * mean);
  EXPECT_GT(cv2, 1.1);
}

TEST(Arrivals, DiurnalIntegralMatchesExpectedCount) {
  wl::ArrivalConfig cfg;
  cfg.kind = wl::ArrivalKind::kDiurnal;
  cfg.rate_hz = 1200.0;
  cfg.diurnal_mult = {0.25, 0.5, 1.0, 2.0, 1.5, 0.75};
  cfg.diurnal_period = sim::seconds(1);
  wl::ArrivalProcess p(cfg);
  // Closed form: the piecewise-constant integral, segment by segment. The
  // generator's effective period is seg_len * n_segs (integer division of
  // the period), so compute against the same segment length.
  const sim::Duration seg =
      cfg.diurnal_period /
      static_cast<sim::Duration>(cfg.diurnal_mult.size());
  double full = 0.0;
  for (const double m : cfg.diurnal_mult) {
    full += cfg.rate_hz * m * sim::to_sec(seg);
  }
  const sim::Duration eff_period =
      seg * static_cast<sim::Duration>(cfg.diurnal_mult.size());
  EXPECT_NEAR(p.expected_count(eff_period), full, 1e-6);
  // Partial segments integrate proportionally.
  EXPECT_NEAR(p.expected_count(seg / 2),
              cfg.rate_hz * 0.25 * sim::to_sec(seg / 2), 1e-9);
  EXPECT_NEAR(p.expected_count(seg + seg / 4),
              cfg.rate_hz * (0.25 * sim::to_sec(seg) +
                             0.5 * sim::to_sec(seg / 4)),
              1e-6);
  // Empirical arrival count over 30 effective periods matches the
  // integral (~36k arrivals; Poisson noise is ~0.5%, tolerance 3%).
  sim::Rng rng(13);
  const sim::Duration horizon = 30 * eff_period;
  sim::Duration t = 0;
  std::uint64_t count = 0;
  while (true) {
    const sim::Duration g = p.next_gap(rng);
    if (t + g >= horizon) break;
    t += g;
    ++count;
  }
  const double expected = p.expected_count(horizon);
  EXPECT_NEAR(static_cast<double>(count), expected, 0.03 * expected);
}

TEST(Arrivals, GapStreamIsAPureFunctionOfSeedAndConfig) {
  for (const wl::ArrivalKind kind :
       {wl::ArrivalKind::kPoisson, wl::ArrivalKind::kMmpp,
        wl::ArrivalKind::kDiurnal}) {
    wl::ArrivalConfig cfg;
    cfg.kind = kind;
    wl::ArrivalProcess a(cfg), b(cfg), c(cfg);
    sim::Rng ra(7), rb(7), rc(8);
    bool any_diff = false;
    for (int i = 0; i < 2000; ++i) {
      const sim::Duration ga = a.next_gap(ra);
      ASSERT_EQ(ga, b.next_gap(rb)) << arrival_kind_name(kind) << " @" << i;
      any_diff = any_diff || ga != c.next_gap(rc);
    }
    EXPECT_TRUE(any_diff) << arrival_kind_name(kind);  // seed matters
  }
}

TEST(Arrivals, NamesRoundTripAndRejectUnknown) {
  for (const wl::ArrivalKind k :
       {wl::ArrivalKind::kPoisson, wl::ArrivalKind::kMmpp,
        wl::ArrivalKind::kDiurnal}) {
    wl::ArrivalKind parsed;
    ASSERT_TRUE(wl::arrival_kind_from_name(wl::arrival_kind_name(k), &parsed));
    EXPECT_EQ(parsed, k);
  }
  wl::ArrivalKind parsed;
  EXPECT_FALSE(wl::arrival_kind_from_name("pareto", &parsed));
  for (const wl::OverloadPolicy p :
       {wl::OverloadPolicy::kTailDrop, wl::OverloadPolicy::kAdmit,
        wl::OverloadPolicy::kShed}) {
    wl::OverloadPolicy out;
    ASSERT_TRUE(
        wl::overload_policy_from_name(wl::overload_policy_name(p), &out));
    EXPECT_EQ(out, p);
  }
  wl::OverloadPolicy out;
  EXPECT_FALSE(wl::overload_policy_from_name("retry", &out));
}

// ---------------------------------------------------------------------------
// Scenario-level determinism
// ---------------------------------------------------------------------------

exp::ScenarioConfig frontend_cfg() {
  exp::ScenarioConfig cfg;
  cfg.fg = "frontend";
  cfg.bg = "";  // alone; the hog runs are below
  cfg.server_duration = sim::milliseconds(400);
  cfg.seed = 21;
  return cfg;
}

TEST(FrontendDeterminism, BitIdenticalAcrossRerunsAndQueueBackends) {
  const exp::ScenarioConfig cfg = frontend_cfg();
  const exp::RunResult first = exp::run_scenario(cfg);
  ASSERT_TRUE(first.finished);
  EXPECT_FALSE(first.frontend.empty());
  EXPECT_NE(first.frontend_digest, 0u);
  EXPECT_EQ(first.frontend_digest, first.frontend.digest());
  for (const sim::QueueKind kind :
       {sim::QueueKind::kBinaryHeap, sim::QueueKind::kQuadHeap,
        sim::QueueKind::kHybridWheel}) {
    exp::ScenarioConfig c = cfg;
    c.queue = kind;
    const exp::RunResult r = exp::run_scenario(c);
    EXPECT_TRUE(exp::results_identical(first, r))
        << "backend " << static_cast<int>(kind);
  }
}

TEST(FrontendDeterminism, SweepThreadCountAndFoldOrderInvariant) {
  // A small grid spanning all three arrival processes and two policies.
  std::vector<exp::ScenarioConfig> grid;
  for (const char* arrival : {"poisson", "mmpp", "diurnal"}) {
    for (const char* policy : {"drop", "shed"}) {
      exp::ScenarioConfig cfg = frontend_cfg();
      cfg.server_duration = sim::milliseconds(250);
      cfg.fe_arrival = arrival;
      cfg.fe_overload = policy;
      grid.push_back(cfg);
    }
  }
  const auto serial = exp::run_sweep(grid, /*n_threads=*/1);
  const auto parallel = exp::run_sweep(grid, /*n_threads=*/4);
  ASSERT_EQ(serial.size(), grid.size());
  ASSERT_EQ(parallel.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_NE(serial[i].frontend_digest, 0u) << i;
    EXPECT_TRUE(exp::results_identical(serial[i], parallel[i])) << i;
  }
  // Fold order independence: folding (evens, odds) must equal folding in
  // run order — the XOR digest and the exact counter fold are both
  // grouping- and order-independent.
  exp::SweepStats in_order, shuffled;
  for (const auto& r : serial) in_order.add(r);
  for (std::size_t i = 0; i < serial.size(); i += 2) shuffled.add(serial[i]);
  for (std::size_t i = 1; i < serial.size(); i += 2) shuffled.add(serial[i]);
  EXPECT_EQ(in_order.blocks().frontend, shuffled.blocks().frontend);
  EXPECT_EQ(in_order.blocks().frontend_digest,
            shuffled.blocks().frontend_digest);
  EXPECT_FALSE(in_order.blocks().frontend.empty());
}

// ---------------------------------------------------------------------------
// Overload fault matrix
// ---------------------------------------------------------------------------

const obs::SloClassResult* find_class(const obs::SloResult& slo,
                                      const std::string& name) {
  for (const obs::SloClassResult& c : slo.classes) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

TEST(FrontendOverload, FaultMatrixConservesAndChargesEveryPolicy) {
  for (const char* policy : {"drop", "admit", "shed"}) {
    for (const bool keepalive : {true, false}) {
      SCOPED_TRACE(std::string(policy) + (keepalive ? "+ka" : "-ka"));
      exp::ScenarioConfig cfg = frontend_cfg();
      // 4 workers at ~2 ms/request serve ~2000/s; offering 8000/s forces
      // the overload path continuously. The 64-slot queue matters: a full
      // queue means ~32 ms of estimated delay and ~34 ms of actual
      // latency, both past the 20 ms SLO threshold, so the admission
      // controller (rejects once estimated delay exceeds the threshold)
      // and the shed controller (sheds once a completion window burns its
      // error budget) both engage before the tail-drop backstop.
      cfg.fe_rate_hz = 8000.0;
      cfg.fe_queue_cap = 64;
      cfg.fe_overload = policy;
      cfg.fe_keepalive = keepalive;
      const exp::RunResult r = exp::run_scenario(cfg);
      ASSERT_TRUE(r.finished);
      const obs::FrontendResult& f = r.frontend;
      // The conservation identity: every arrival is accounted for.
      EXPECT_EQ(f.arrivals,
                f.completed + f.dropped() + f.shed + f.in_flight);
      EXPECT_EQ(f.accepted, f.completed + f.in_flight);
      EXPECT_GT(f.completed, 0u);
      EXPECT_GT(f.arrivals, f.completed);  // genuinely overloaded
      // The policy's own refusal channel fired...
      if (std::string(policy) == "drop") {
        EXPECT_GT(f.tail_dropped, 0u);
        EXPECT_EQ(f.admit_rejected, 0u);
        EXPECT_EQ(f.shed, 0u);
      } else if (std::string(policy) == "admit") {
        EXPECT_GT(f.admit_rejected, 0u);
        EXPECT_EQ(f.shed, 0u);
      } else {
        EXPECT_GT(f.shed, 0u);
      }
      // ...and the queue bound held.
      EXPECT_LE(f.max_queue_depth, 64u);
      // Keepalive bookkeeping: with it, connections are reused; without
      // it, every accepted request re-pays connection setup.
      if (keepalive) {
        EXPECT_GT(f.keepalive_reuses, 0u);
      } else {
        EXPECT_EQ(f.keepalive_reuses, 0u);
        EXPECT_EQ(f.conn_setups, f.accepted);
      }
      EXPECT_EQ(f.conn_setups + f.keepalive_reuses, f.accepted);
      // Refusals are SLO classes with threshold 0: every one is recorded
      // and every one burns error budget (violations == count).
      const obs::SloClassResult* drop = find_class(r.slo, "fe.drop");
      const obs::SloClassResult* shed = find_class(r.slo, "fe.shed");
      ASSERT_NE(drop, nullptr);
      ASSERT_NE(shed, nullptr);
      EXPECT_EQ(drop->total.count(), f.dropped());
      EXPECT_EQ(drop->violations(), f.dropped());
      EXPECT_EQ(shed->total.count(), f.shed);
      EXPECT_EQ(shed->violations(), f.shed);
      if (f.dropped() > 0) {
        // Budget burn shows up in the windowed view too.
        std::uint64_t win_viol = 0;
        for (const obs::SloWindow& w : drop->windows) {
          win_viol += w.violations;
        }
        EXPECT_EQ(win_viol, f.dropped());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// JSON block: round-trip, malformed rejection, golden fixture, fold
// ---------------------------------------------------------------------------

obs::FrontendResult sample_ledger() {
  obs::FrontendResult f;
  f.completed = 1453;
  f.tail_dropped = 232;
  f.admit_rejected = 17;
  f.shed = 41;
  f.in_flight = 62;
  f.accepted = f.completed + f.in_flight;
  f.arrivals = f.accepted + f.tail_dropped + f.admit_rejected + f.shed;
  f.conn_setups = 96;
  f.keepalive_reuses = 1419;
  f.max_queue_depth = 64;
  f.queue_wait_total = 52891126685;
  f.queue_wait_max = 50040699;
  return f;
}

std::string to_json(const obs::FrontendResult& f) {
  obs::JsonWriter w(obs::JsonWriter::Doubles::kRoundTrip);
  obs::frontend_json(w, f);
  return w.str();
}

TEST(FrontendJson, RoundTripsByteIdentical) {
  const obs::FrontendResult f = sample_ledger();
  const std::string json = to_json(f);
  obs::JsonReader reader;
  obs::JsonValue v;
  ASSERT_TRUE(reader.parse(json, &v)) << reader.error();
  obs::FrontendResult parsed;
  std::string err;
  ASSERT_TRUE(obs::frontend_from_value(v, &parsed, &err)) << err;
  EXPECT_EQ(parsed, f);
  EXPECT_EQ(parsed.digest(), f.digest());
  EXPECT_EQ(to_json(parsed), json);  // byte-identical re-emit
}

TEST(FrontendJson, RejectsMalformedBlocks) {
  obs::FrontendResult out;
  std::string err;
  obs::JsonReader reader;
  obs::JsonValue v;
  // Not an object.
  ASSERT_TRUE(reader.parse("[1,2]", &v));
  EXPECT_FALSE(obs::frontend_from_value(v, &out, &err));
  // Each required key, individually missing (renamed), is rejected with an
  // error naming the key.
  const std::string full = to_json(sample_ledger());
  for (const char* key :
       {"arrivals", "accepted", "completed", "tail_dropped", "admit_rejected",
        "shed", "in_flight", "conn_setups", "keepalive_reuses",
        "max_queue_depth", "queue_wait_total_ns", "queue_wait_max_ns"}) {
    std::string broken = full;
    const std::string needle = std::string("\"") + key + "\"";
    const std::size_t pos = broken.find(needle);
    ASSERT_NE(pos, std::string::npos) << key;
    broken.replace(pos, needle.size(), std::string("\"x_") + key + "\"");
    ASSERT_TRUE(reader.parse(broken, &v)) << key;
    err.clear();
    EXPECT_FALSE(obs::frontend_from_value(v, &out, &err)) << key;
    EXPECT_NE(err.find(key), std::string::npos) << err;
  }
  // Wrong type.
  ASSERT_TRUE(reader.parse(R"({"arrivals":"many"})", &v));
  EXPECT_FALSE(obs::frontend_from_value(v, &out, &err));
}

std::string golden_path(const std::string& name) {
  return std::string(IRS_GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The frontend block's serialized form is pinned byte-for-byte: schema or
/// key-order drift fails here first. Regenerate after an intentional change
/// with IRS_REGEN_GOLDEN=1 ./irs_tests --gtest_filter=FrontendGolden.*
TEST(FrontendGolden, SerializedBlockMatchesFixtureByteForByte) {
  const std::string json = to_json(sample_ledger()) + "\n";
  const std::string path = golden_path("frontend_result.json");
  if (std::getenv("IRS_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << json;
    ASSERT_TRUE(out.good()) << "could not regenerate " << path;
    GTEST_SKIP() << "regenerated frontend_result.json";
  }
  const std::string want = read_file(path);
  ASSERT_FALSE(want.empty())
      << "missing golden file frontend_result.json (run with "
         "IRS_REGEN_GOLDEN=1 to create)";
  EXPECT_EQ(json, want)
      << "frontend JSON drifted from the golden fixture; if intentional, "
         "regenerate with IRS_REGEN_GOLDEN=1";
  // The on-disk fixture is live: parsing it reproduces the exact ledger.
  obs::JsonReader reader;
  obs::JsonValue v;
  ASSERT_TRUE(reader.parse(want, &v)) << reader.error();
  obs::FrontendResult parsed;
  std::string err;
  ASSERT_TRUE(obs::frontend_from_value(v, &parsed, &err)) << err;
  EXPECT_EQ(parsed, sample_ledger());
}

TEST(FrontendFold, ExactOrderIndependentWithMaxSemantics) {
  obs::FrontendResult a = sample_ledger();
  obs::FrontendResult b = sample_ledger();
  b.completed = 7;
  b.arrivals = 9;
  b.max_queue_depth = 200;
  b.queue_wait_max = a.queue_wait_max + 5;
  obs::FrontendResult ab, ba;
  obs::fold_frontend(ab, a);
  obs::fold_frontend(ab, b);
  obs::fold_frontend(ba, b);
  obs::fold_frontend(ba, a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.arrivals, a.arrivals + b.arrivals);
  EXPECT_EQ(ab.completed, a.completed + b.completed);
  EXPECT_EQ(ab.max_queue_depth, 200u);          // max, not sum
  EXPECT_EQ(ab.queue_wait_max, b.queue_wait_max);
  EXPECT_EQ(ab.queue_wait_total, a.queue_wait_total + b.queue_wait_total);
  // Folding an empty ledger is a no-op; empty digests are 0, others not.
  obs::FrontendResult untouched = ab;
  obs::fold_frontend(ab, obs::FrontendResult{});
  EXPECT_EQ(ab, untouched);
  EXPECT_EQ(obs::FrontendResult{}.digest(), 0u);
  EXPECT_NE(ab.digest(), 0u);
  EXPECT_NE(a.digest(), b.digest());
}

// ---------------------------------------------------------------------------
// Forensics: queue wait is a first-class cause
// ---------------------------------------------------------------------------

TEST(FrontendForensics, QueueWaitChargedExactlyFromTheLedger) {
  exp::ScenarioConfig cfg = frontend_cfg();
  cfg.bg = "hog";
  cfg.n_inter = 2;
  cfg.fe_rate_hz = 3000.0;  // above the hog-degraded capacity: queues form
  cfg.forensics = true;
  const exp::RunResult r = exp::run_scenario(cfg);
  ASSERT_TRUE(r.finished);
  ASSERT_FALSE(r.forensics.empty());
  const obs::ForensicsClassResult* fe = nullptr;
  for (const obs::ForensicsClassResult& c : r.forensics.classes) {
    if (c.name == "fe") fe = &c;
  }
  ASSERT_NE(fe, nullptr);
  EXPECT_EQ(fe->spans, r.frontend.completed);
  EXPECT_GT(r.frontend.queue_wait_total, 0);
  // The analyzer pre-charges each span's accept-queue wait to kQueueWait;
  // summed over completed requests that is exactly the ledger total.
  EXPECT_EQ(fe->cause_total(obs::Cause::kQueueWait),
            r.frontend.queue_wait_total);
  EXPECT_GT(r.frontend.queue_wait_max, 0);
  // The rest of the decomposition still runs: some run time was charged.
  EXPECT_GT(fe->cause_total(obs::Cause::kRun), 0);
}

}  // namespace
}  // namespace irs
