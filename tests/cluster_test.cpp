// Cluster layer tests: the placement/migration ledger (exact fold, digest,
// JSON round-trip), admission-policy placement determinism, the migration
// conservation identities from src/obs/cluster_stats.h, the cluster
// determinism battery (bit-identical RunResults across queue backends,
// sweep thread counts, and a result_json round trip folded in either
// order), the fig_cluster acceptance fixture (IRS placement beats random
// under co-located hogs), the RunCapture per-host dump surface, and the
// HostNode VmId-validation errors the cluster API split made load-bearing.
#include "src/cluster/cluster.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/world.h"
#include "src/exp/report.h"
#include "src/exp/runner.h"
#include "src/exp/stats.h"
#include "src/exp/sweep.h"
#include "src/obs/cluster_stats.h"
#include "src/obs/json.h"
#include "src/obs/json_reader.h"
#include "src/obs/sampler.h"

namespace {

using namespace irs;

// ---------------------------------------------------------------------------
// Ledger: fold / digest / JSON
// ---------------------------------------------------------------------------

/// Deterministic synthetic ledger for run `i`: every field nonzero and
/// i-dependent (the fold/JSON tests need distinguishable bits, not the
/// conservation identities — those are covered on real runs below).
obs::ClusterResult synth_cluster(std::uint64_t i) {
  obs::ClusterResult c;
  c.n_hosts = 2 + static_cast<std::uint32_t>(i % 2);
  c.policy = static_cast<std::uint32_t>(i % 3);
  c.vms = 3 + i;
  c.migratable = 2 + i;
  c.decisions = 10 * i + 1;
  c.migrations = i + 1;
  c.in_transit_end = i % 2;
  c.downtime_total = static_cast<sim::Duration>(20000001 * (i + 1));
  for (std::uint32_t h = 0; h < c.n_hosts; ++h) {
    obs::ClusterHostLedger hl;
    hl.placed = 1 + h + i;
    hl.migr_in = 7 * i + h;
    hl.migr_out = 5 * i + 2 * h;
    hl.active_end = 3 + h;
    hl.samples = 100 + i + h;
    hl.lhp = 11 * i + h;
    hl.lwp = 13 * i + h;
    hl.steal = static_cast<sim::Duration>(997 * (i + 1) * (h + 1));
    c.hosts.push_back(hl);
  }
  return c;
}

TEST(ClusterLedger, FoldIsExactAndOrderIndependent) {
  const std::vector<obs::ClusterResult> runs = {
      synth_cluster(0), synth_cluster(1), synth_cluster(2), synth_cluster(5)};
  obs::ClusterResult fwd;
  for (const auto& r : runs) obs::fold_cluster(fwd, r);
  obs::ClusterResult rev;
  for (auto it = runs.rbegin(); it != runs.rend(); ++it) {
    obs::fold_cluster(rev, *it);
  }
  EXPECT_EQ(fwd, rev);
  EXPECT_EQ(fwd.digest(), rev.digest());
  // Counters add exactly; n_hosts/policy take the max; hosts grow to the
  // widest run.
  EXPECT_EQ(fwd.n_hosts, 3u);
  EXPECT_EQ(fwd.policy, 2u);
  EXPECT_EQ(fwd.vms, 3 + 0 + 3 + 1 + 3 + 2 + 3 + 5);
  EXPECT_EQ(fwd.migrations, 1u + 2u + 3u + 6u);
  ASSERT_EQ(fwd.hosts.size(), 3u);
  EXPECT_EQ(fwd.hosts[0].placed,
            (1 + 0) + (1 + 1) + (1 + 2) + (1 + 5));
  // Host 2 exists only in the odd-i runs.
  EXPECT_EQ(fwd.hosts[2].placed, (1 + 2 + 1) + (1 + 2 + 5));
  // Folding an empty result is a no-op.
  const obs::ClusterResult before = fwd;
  obs::fold_cluster(fwd, obs::ClusterResult{});
  EXPECT_EQ(fwd, before);
}

TEST(ClusterLedger, DigestIsZeroOnlyWhenEmptyAndFieldSensitive) {
  EXPECT_TRUE(obs::ClusterResult{}.empty());
  EXPECT_EQ(obs::ClusterResult{}.digest(), 0u);
  const obs::ClusterResult base = synth_cluster(3);
  EXPECT_FALSE(base.empty());
  EXPECT_NE(base.digest(), 0u);
  // Any single-field perturbation moves the digest.
  auto perturbed = [&](auto&& mutate) {
    obs::ClusterResult c = base;
    mutate(c);
    return c.digest();
  };
  EXPECT_NE(perturbed([](auto& c) { c.policy ^= 1; }), base.digest());
  EXPECT_NE(perturbed([](auto& c) { c.migrations += 1; }), base.digest());
  EXPECT_NE(perturbed([](auto& c) { c.downtime_total += 1; }), base.digest());
  EXPECT_NE(perturbed([](auto& c) { c.hosts[1].steal += 1; }), base.digest());
  EXPECT_NE(perturbed([](auto& c) { c.hosts.pop_back(); }), base.digest());
}

TEST(ClusterLedger, JsonRoundTripsBitIdentical) {
  for (const std::uint64_t i : {0ULL, 1ULL, 4ULL}) {
    const obs::ClusterResult c = synth_cluster(i);
    obs::JsonWriter w(obs::JsonWriter::Doubles::kRoundTrip);
    obs::cluster_json(w, c);
    obs::JsonReader reader;
    obs::JsonValue v;
    ASSERT_TRUE(reader.parse(w.str(), &v)) << reader.error();
    obs::ClusterResult parsed;
    std::string err;
    ASSERT_TRUE(obs::cluster_from_value(v, &parsed, &err)) << err;
    EXPECT_EQ(parsed, c);
    EXPECT_EQ(parsed.digest(), c.digest());
    // Re-emitting the parsed ledger reproduces the exact bytes.
    obs::JsonWriter w2(obs::JsonWriter::Doubles::kRoundTrip);
    obs::cluster_json(w2, parsed);
    EXPECT_EQ(w2.str(), w.str());
  }
}

TEST(ClusterLedger, JsonRejectsMalformedWithNamedErrors) {
  obs::JsonReader reader;
  obs::JsonValue v;
  obs::ClusterResult out;
  std::string err;
  // Not an object.
  ASSERT_TRUE(reader.parse("[1,2]", &v));
  EXPECT_FALSE(obs::cluster_from_value(v, &out, &err));
  EXPECT_EQ(err.find("cluster"), 0u) << err;
  // Missing a required counter.
  ASSERT_TRUE(reader.parse(R"({"n_hosts":2,"policy":1})", &v));
  EXPECT_FALSE(obs::cluster_from_value(v, &out, &err));
  EXPECT_NE(err.find("cluster: missing or bad"), std::string::npos) << err;
  // A host row with the wrong arity is rejected, not zero-filled.
  ASSERT_TRUE(reader.parse(
      R"({"n_hosts":1,"policy":0,"vms":1,"migratable":0,"decisions":0,)"
      R"("migrations":0,"in_transit_end":0,"downtime_total_ns":0,)"
      R"("hosts":[[1,0,0,1,5,0,0]]})",
      &v));
  EXPECT_FALSE(obs::cluster_from_value(v, &out, &err));
  EXPECT_NE(err.find("8-element"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Admission placement: each policy is deterministic and has its shape
// ---------------------------------------------------------------------------

cluster::ClusterConfig tiny_cluster(int n_hosts, cluster::Policy policy,
                                    std::uint64_t seed = 1) {
  cluster::ClusterConfig cc;
  cc.n_hosts = n_hosts;
  cc.policy = policy;
  cc.seed = seed;
  return cc;
}

std::vector<int> admit_hogs(cluster::Cluster& cl, int n, int n_vcpus = 2) {
  std::vector<int> hosts;
  for (int i = 0; i < n; ++i) {
    const int mig =
        cl.add_migratable_hog("hog" + std::to_string(i), n_vcpus, n_vcpus);
    hosts.push_back(cl.assigned_host(mig));
  }
  return hosts;
}

TEST(ClusterPlacement, FirstFitFillsInOrderThenOverflowsLeastLoaded) {
  cluster::Cluster cl(tiny_cluster(3, cluster::Policy::kFirstFit));
  // 4 pCPUs per host, 2-vCPU VMs: two per host in index order; the 7th
  // fits nowhere and overflows to the least-loaded (ties: host 0).
  EXPECT_EQ(admit_hogs(cl, 7), (std::vector<int>{0, 0, 1, 1, 2, 2, 0}));
}

TEST(ClusterPlacement, IrsSpreadsLeastVcpusLowestIndexTies) {
  cluster::Cluster cl(tiny_cluster(3, cluster::Policy::kIrs));
  EXPECT_EQ(admit_hogs(cl, 6), (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(ClusterPlacement, IrsSpreadCountsFixedVmsToo) {
  cluster::ClusterConfig cc = tiny_cluster(2, cluster::Policy::kIrs);
  cluster::Cluster cl(cc);
  hv::VmConfig fg;
  fg.name = "fg";
  fg.n_vcpus = 4;
  cl.add_vm(/*host=*/0, fg, /*irs_capable=*/true);
  // Host 0 already carries 4 fixed vCPUs: both 2-vCPU hogs spread to host
  // 1; the third ties 4-vs-4 and takes the lowest index.
  EXPECT_EQ(admit_hogs(cl, 3), (std::vector<int>{1, 1, 0}));
}

TEST(ClusterPlacement, RandomIsSeedReproducible) {
  cluster::Cluster a(tiny_cluster(4, cluster::Policy::kRandom, 7));
  cluster::Cluster b(tiny_cluster(4, cluster::Policy::kRandom, 7));
  EXPECT_EQ(admit_hogs(a, 8), admit_hogs(b, 8));
}

// ---------------------------------------------------------------------------
// Real cluster runs through the experiment runner
// ---------------------------------------------------------------------------

/// The standard two-host scenario: a protected "ab" server on host 0 and
/// `n_hogs` migratable two-vCPU hog VMs admitted by `policy`.
exp::ScenarioConfig cluster_cfg(const std::string& policy, int n_hogs,
                                sim::Duration duration) {
  exp::ScenarioConfig cfg;
  cfg.fg = "ab";
  cfg.strategy = core::Strategy::kBaseline;
  cfg.n_inter = 2;
  cfg.n_bg_vms = n_hogs;
  cfg.seed = 1;
  cfg.server_duration = duration;
  cfg.cluster.n_hosts = 2;
  cfg.cluster.policy = policy;
  return cfg;
}

TEST(ClusterMigration, ConservationIdentitiesHoldAcrossMigrations) {
  // IRS admission ties the third hog onto the protected host, so the
  // decision loop must evict it: a run with at least one live migration.
  const exp::RunResult r =
      exp::run_scenario(cluster_cfg("irs", 3, sim::seconds(1)));
  ASSERT_TRUE(r.finished);
  const obs::ClusterResult& c = r.cluster;
  ASSERT_EQ(c.n_hosts, 2u);
  EXPECT_EQ(c.policy,
            static_cast<std::uint32_t>(cluster::Policy::kIrs));
  EXPECT_EQ(c.vms, 4u);         // 1 fixed foreground + 3 migratable hogs
  EXPECT_EQ(c.migratable, 3u);
  EXPECT_GE(c.migrations, 1u);  // the co-located hog was evicted
  EXPECT_GT(c.decisions, 0u);
  EXPECT_LE(c.in_transit_end, c.migrations);
  // The cost model books exactly one downtime per migration.
  EXPECT_EQ(c.downtime_total,
            static_cast<sim::Duration>(c.migrations) *
                cluster::ClusterConfig{}.migration.downtime);
  // The conservation identities from src/obs/cluster_stats.h.
  ASSERT_EQ(c.hosts.size(), 2u);
  std::uint64_t placed = 0;
  std::uint64_t in = 0;
  std::uint64_t out = 0;
  for (const obs::ClusterHostLedger& h : c.hosts) {
    EXPECT_EQ(h.placed + h.migr_in - h.migr_out, h.active_end);
    EXPECT_GT(h.samples, 0u);  // every host's collector ran
    placed += h.placed;
    in += h.migr_in;
    out += h.migr_out;
  }
  EXPECT_EQ(placed, c.vms);
  EXPECT_EQ(in, c.migrations);
  EXPECT_EQ(out, c.migrations);
  // The ledger digest in the result is live and recomputable.
  EXPECT_NE(r.cluster_digest, 0u);
  EXPECT_EQ(r.cluster_digest, c.digest());
  // The per-host scheduler's own migration counter (foreground kernel) is
  // unrelated to cluster migrations — Baseline keeps it at zero.
  EXPECT_EQ(r.irs_migrations, 0u);
}

TEST(ClusterAcceptance, IrsPlacementBeatsRandomUnderTwoHogs) {
  // The fig_cluster headline on its fixed-seed fixture: the random policy
  // co-locates a hog with the protected server (seed 1 places one of the
  // two hogs on host 0) while the IRS spread keeps host 0 clean, so the
  // foreground p999 gap is the whole interference story.
  const exp::RunResult rnd =
      exp::run_scenario(cluster_cfg("random", 2, sim::seconds(1)));
  const exp::RunResult irs =
      exp::run_scenario(cluster_cfg("irs", 2, sim::seconds(1)));
  ASSERT_TRUE(rnd.finished);
  ASSERT_TRUE(irs.finished);
  ASSERT_EQ(rnd.cluster.hosts.size(), 2u);
  EXPECT_GE(rnd.cluster.hosts[0].placed, 2u);  // fg + at least one hog
  EXPECT_EQ(irs.cluster.hosts[0].placed, 1u);  // fg alone
  EXPECT_EQ(irs.cluster.hosts[1].placed, 2u);  // both hogs spread away
  EXPECT_GT(rnd.lat_p999, 0);
  EXPECT_GT(irs.lat_p999, 0);
  // Co-location roughly doubles the tail on this fixture; 1.2x is a wide
  // margin over run-to-run determinism (there is none — fixed seed).
  EXPECT_GT(static_cast<double>(rnd.lat_p999),
            1.2 * static_cast<double>(irs.lat_p999));
}

// ---------------------------------------------------------------------------
// Determinism battery: backends x sweep threads x fold order
// ---------------------------------------------------------------------------

/// Two-cell grid (random + irs placement) with sampling and tracing armed
/// so every digest in the result is live.
std::vector<exp::ScenarioConfig> battery_cells(sim::QueueKind queue) {
  std::vector<exp::ScenarioConfig> cfgs;
  for (const char* pol : {"random", "irs"}) {
    exp::ScenarioConfig cfg = cluster_cfg(pol, 3, sim::milliseconds(300));
    cfg.sample_period = obs::Sampler::kDefaultPeriod;
    cfg.trace_capacity = 1 << 18;  // roomy: the ring never wraps
    cfg.queue = queue;
    cfgs.push_back(cfg);
  }
  return cfgs;
}

TEST(ClusterDeterminism, BitIdenticalAcrossBackendsBatchAndThreads) {
  const auto ref =
      exp::run_sweep(battery_cells(sim::QueueKind::kBinaryHeap),
                     /*n_threads=*/1);
  ASSERT_EQ(ref.size(), 2u);
  for (const exp::RunResult& r : ref) {
    ASSERT_TRUE(r.finished);
    EXPECT_NE(r.cluster_digest, 0u);
    EXPECT_NE(r.sampler_digest, 0u);
    EXPECT_EQ(r.trace_dropped, 0u);  // the ring really was roomy
  }
  for (const sim::QueueKind queue :
       {sim::QueueKind::kBinaryHeap, sim::QueueKind::kQuadHeap,
        sim::QueueKind::kHybridWheel}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "queue=" << static_cast<int>(queue)
                                      << " threads=" << threads);
      const auto got = exp::run_sweep(battery_cells(queue), threads);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_TRUE(exp::results_identical(ref[i], got[i]));
      }
    }
  }
}

TEST(ClusterDeterminism, ResultJsonRoundTripFoldsBitIdenticallyInEitherOrder) {
  const auto cfgs = battery_cells(sim::default_queue_kind());
  const auto runs = exp::run_sweep(cfgs, /*n_threads=*/2);
  ASSERT_EQ(runs.size(), 2u);

  // Every run survives result_json bit-identically, cluster block included.
  std::vector<exp::RunResult> parsed(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE(i);
    std::string err;
    ASSERT_TRUE(exp::result_from_json(exp::result_json(runs[i]), &parsed[i],
                                      &err))
        << err;
    EXPECT_TRUE(exp::results_identical(runs[i], parsed[i]));
  }
  // The sweep-stats cluster fold is integer-exact, so folding the parsed
  // runs in either order produces the same totals and digest XOR.
  exp::SweepStats a;
  a.add(parsed[0]);
  a.add(parsed[1]);
  exp::SweepStats b;
  b.add(parsed[1]);
  b.add(parsed[0]);
  EXPECT_EQ(a.blocks().cluster, b.blocks().cluster);
  EXPECT_EQ(a.blocks().cluster_digest, b.blocks().cluster_digest);
  EXPECT_EQ(a.blocks().cluster_digest,
            runs[0].cluster_digest ^ runs[1].cluster_digest);
  obs::ClusterResult direct;
  obs::fold_cluster(direct, runs[0].cluster);
  obs::fold_cluster(direct, runs[1].cluster);
  EXPECT_EQ(a.blocks().cluster, direct);
}

// ---------------------------------------------------------------------------
// RunCapture: per-host dumps
// ---------------------------------------------------------------------------

TEST(ClusterCapture, HostDumpsCoverEveryHostAndHostZeroEqualsDump) {
  exp::ScenarioConfig cfg = cluster_cfg("irs", 1, sim::milliseconds(200));
  exp::TraceDump dump;
  std::vector<exp::TraceDump> host_dumps;
  exp::RunCapture cap;
  cap.dump = &dump;
  cap.host_dumps = &host_dumps;
  const exp::RunResult r = exp::run_scenario(cfg, cap);
  ASSERT_TRUE(r.finished);
  ASSERT_EQ(host_dumps.size(), 2u);
  EXPECT_FALSE(dump.records.empty());
  EXPECT_FALSE(dump.meta.vcpus.empty());
  // Host 0's entry is what the single-dump surface receives.
  EXPECT_EQ(host_dumps[0].records.size(), dump.records.size());
  EXPECT_EQ(host_dumps[0].meta.title, dump.meta.title);
  EXPECT_EQ(host_dumps[0].slo.digest(), r.slo.digest());
  // Per-host titles name their host.
  EXPECT_NE(host_dumps[0].meta.title.find("host0"), std::string::npos)
      << host_dumps[0].meta.title;
  EXPECT_NE(host_dumps[1].meta.title.find("host1"), std::string::npos)
      << host_dumps[1].meta.title;
}

TEST(ClusterCapture, UnknownPolicyFailsWithNamedError) {
  exp::ScenarioConfig cfg = cluster_cfg("bogus", 1, sim::milliseconds(100));
  try {
    exp::run_scenario(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown cluster policy 'bogus'"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// HostNode VmId validation (the bug the cluster split made load-bearing)
// ---------------------------------------------------------------------------

TEST(HostNodeValidation, ForeignVmIdFailsNamingIdAndHost) {
  core::World w(core::WorldConfig{});
  hv::VmConfig vc;
  vc.name = "fg";
  vc.n_vcpus = 2;
  const hv::VmId vm = w.add_vm(vc, /*irs_capable=*/false);
  try {
    static_cast<void>(w.kernel(vm + 7));
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("kernel: VmId " + std::to_string(vm + 7)),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("host 'host'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("host-local"), std::string::npos) << msg;
  }
  EXPECT_THROW(static_cast<void>(w.workload(-1)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(w.vm_metrics(99)), std::out_of_range);
}

TEST(HostNodeValidation, ClusterAccessorsNameTheirHost) {
  cluster::Cluster cl(tiny_cluster(2, cluster::Policy::kIrs));
  try {
    static_cast<void>(cl.kernel(cluster::CvmId{1, 3}));
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("host 'host1'"), std::string::npos)
        << e.what();
  }
  // And a bad host index fails at the cluster boundary, naming the range.
  try {
    static_cast<void>(cl.node(5));
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("host 5 out of range"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
