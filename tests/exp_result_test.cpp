// Result-block tests: the byte-pinned result_json of a fixture carrying
// all four result blocks, the SweepStats fold over it, the NDJSON stream
// of a sampled grid, and one typed suite that checks the block protocol
// (JSON round trip, omission when empty, required digest, malformed-value
// rejection, order-independent fold, folded-block round trip, deep
// equality) for every block.
//
// tests/golden/result_blocks.ndjson and result_blocks_fold.ndjson pin the
// serialized bytes; they are fixtures, not regenerated by the tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/exp/report.h"
#include "src/exp/runner.h"
#include "src/exp/stats.h"
#include "src/exp/sweep.h"
#include "src/obs/sampler.h"

namespace irs::exp {
namespace {

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// Deterministic synthetic result for run `i`: every field nonzero and
/// i-dependent, doubles chosen to be unrepresentable in short decimal so
/// the round-trip formatting is actually exercised.
RunResult synth(std::uint64_t i) {
  RunResult r;
  r.finished = true;
  r.fg_makespan = static_cast<sim::Duration>(1000000 + 7 * i);
  r.fg_util_vs_fair = 0.1 + 0.001 * static_cast<double>(i);
  r.fg_efficiency = 1.0 / 3.0 + static_cast<double>(i);
  r.bg_progress_rate = 123.456 * static_cast<double>(i + 1);
  r.throughput = (i % 2) != 0 ? 1e6 / 7.0 : 0.0;
  r.lat_mean = static_cast<sim::Duration>(5000 * i);
  r.lat_p99 = static_cast<sim::Duration>(9000 * i + 1);
  r.lat_p999 = static_cast<sim::Duration>(9990 * i + 3);
  r.lhp = 11 * i;
  r.lwp = 13 * i;
  r.irs_migrations = i;
  r.sa_sent = 100 + i;
  r.sa_acked = 90 + i;
  r.sa_delay_avg = static_cast<sim::Duration>(777 + i);
  r.sampler_digest = 0x9e3779b97f4a7c15ULL * (i + 1);
  r.trace_dropped = i % 3;  // runs 1, 2 mod 3 carry a truncated-ring flag
  r.trace_total_recorded = 10000 + i;
  // A small but fully-populated SLO block: histogram buckets, windows,
  // and the digest.
  obs::SloTracker t;
  const std::size_t cls = t.add_class(
      "jbb", {/*threshold=*/sim::milliseconds(10), 0.999});
  for (std::uint64_t k = 0; k < 40; ++k) {
    t.record(cls, static_cast<sim::Time>(k * sim::milliseconds(2)),
             static_cast<sim::Duration>(sim::microseconds(300) +
                                        997 * (k + i) * (k + i)));
  }
  t.flush(sim::milliseconds(80));
  r.slo = t.result();
  r.slo_digest = r.slo.digest();
  // A hand-built forensics block (every field nonzero and i-dependent):
  // cause histograms, violating windows, and the forensics digest.
  obs::ForensicsResult f;
  f.window = sim::milliseconds(30);
  f.head_truncated_at =
      (i % 3) != 0 ? static_cast<sim::Time>(sim::microseconds(50) * i) : -1;
  obs::ForensicsClassResult fc;
  fc.name = "jbb";
  fc.spec = obs::SloSpec{sim::milliseconds(10), 0.999};
  for (std::uint64_t k = 0; k < 20; ++k) {
    for (int c = 0; c < obs::kNumCauses; ++c) {
      fc.causes[c].add(static_cast<sim::Duration>(131 * (k + i) * (c + 1)));
    }
  }
  fc.spans = 20;
  fc.truncated = i % 3;
  fc.open = i % 2;
  obs::ForensicsWindow w;
  w.index = static_cast<std::int64_t>(i + 1);
  w.requests = 20;
  w.violations = 3 + i % 5;
  for (int c = 0; c < obs::kNumCauses; ++c) {
    w.causes[c] = static_cast<sim::Duration>(1000 * (c + 1) + 17 * i);
  }
  fc.windows.push_back(w);
  f.classes.push_back(std::move(fc));
  r.forensics = std::move(f);
  r.forensics_digest = r.forensics.digest();
  // A synthetic front-end conservation ledger (every counter nonzero and
  // i-dependent, the conservation identity intact).
  obs::FrontendResult fe;
  fe.completed = 100 + i;
  fe.tail_dropped = 5 + i % 3;
  fe.admit_rejected = 2 + i % 2;
  fe.shed = 3 + i % 4;
  fe.in_flight = 1 + i % 2;
  fe.accepted = fe.completed + fe.in_flight;
  fe.arrivals = fe.accepted + fe.tail_dropped + fe.admit_rejected + fe.shed;
  fe.conn_setups = 10 + i;
  fe.keepalive_reuses = 90 + 2 * i;
  fe.max_queue_depth = 7 + i;
  fe.queue_wait_total = static_cast<sim::Duration>(123457 * (i + 1));
  fe.queue_wait_max = static_cast<sim::Duration>(90001 + 11 * i);
  r.frontend = fe;
  r.frontend_digest = r.frontend.digest();
  // A synthetic cluster placement ledger (every counter i-dependent, the
  // conservation identities intact).
  obs::ClusterResult cl;
  cl.n_hosts = 2;
  cl.policy = static_cast<std::uint32_t>(i % 3);
  cl.migratable = 2 + i % 2;
  cl.vms = cl.migratable + 1;
  cl.decisions = 30 + i;
  cl.migrations = i % 2;
  cl.downtime_total = static_cast<sim::Duration>(20000000 * cl.migrations);
  obs::ClusterHostLedger h0;
  h0.placed = 1;
  h0.migr_out = cl.migrations;
  h0.active_end = h0.placed - h0.migr_out;
  h0.samples = 300 + i;
  h0.lhp = 17 * i;
  h0.lwp = 19 * i;
  h0.steal = static_cast<sim::Duration>(997 * (i + 1));
  obs::ClusterHostLedger h1;
  h1.placed = cl.vms - 1;
  h1.migr_in = cl.migrations;
  h1.active_end = h1.placed + h1.migr_in;
  h1.samples = 300 + i;
  h1.lhp = 23 * i;
  h1.lwp = 29 * i;
  h1.steal = static_cast<sim::Duration>(1009 * (i + 1));
  cl.hosts = {h0, h1};
  r.cluster = cl;
  r.cluster_digest = r.cluster.digest();
  return r;
}

/// The sampler-armed determinism grid: small enough for CI, sampling on so
/// digests are nonzero and covered by the identity check.
std::vector<ScenarioConfig> sampled_grid() {
  std::vector<ScenarioConfig> cfgs;
  for (const char* app : {"blackscholes", "streamcluster"}) {
    for (const auto strategy :
         {core::Strategy::kBaseline, core::Strategy::kIrs}) {
      ScenarioConfig cfg;
      cfg.fg = app;
      cfg.strategy = strategy;
      cfg.work_scale = 0.05;
      cfg.seed = 42;
      cfg.sample_period = obs::Sampler::kDefaultPeriod;
      for (const auto& seeded : seed_grid(cfg, 2)) cfgs.push_back(seeded);
    }
  }
  return cfgs;
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

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// `json` without its `"key":value,` member (value free of commas).
std::string drop_field(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) return json;
  const std::size_t end = json.find(',', at);
  return json.substr(0, at) + json.substr(end + 1);
}

// ---------------------------------------------------------------------------
// Pinned bytes
// ---------------------------------------------------------------------------

TEST(ResultBlocksGolden, ResultJsonMatchesGoldenLines) {
  const std::vector<std::string> want =
      read_lines(golden_path("result_blocks.ndjson"));
  ASSERT_EQ(want.size(), 4u) << "missing or short result_blocks.ndjson";
  for (std::uint64_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(result_json(synth(i)), want[i]);
    RunResult parsed;
    std::string err;
    ASSERT_TRUE(result_from_json(want[i], &parsed, &err)) << err;
    EXPECT_TRUE(results_identical(parsed, synth(i)));
  }
}

TEST(ResultBlocksGolden, SweepFoldMatchesGoldenLine) {
  SweepStats s;
  for (std::uint64_t i = 0; i < 4; ++i) s.add(synth(i));
  EXPECT_EQ(result_json(s.blocks()) + "\n",
            read_file(golden_path("result_blocks_fold.ndjson")));
}

TEST(SweepStats, CountsRunsAndFinished) {
  SweepStats s;
  for (int i = 0; i < 10; ++i) {
    RunResult r;
    r.finished = i % 3 != 0;
    s.add(r);
  }
  EXPECT_EQ(s.runs(), 10u);
  EXPECT_EQ(s.finished(), 6u);
}

// ---------------------------------------------------------------------------
// NDJSON stream
// ---------------------------------------------------------------------------

/// ndjson_consumer at 4 threads writes one result_json per line in run
/// order, and every line parses back to the serial sweep's result.
TEST(NdjsonConsumer, ParallelStreamParsesBackToTheSerialSweep) {
  const auto cfgs = sampled_grid();
  const auto serial = run_sweep(cfgs, /*n_threads=*/1);
  std::ostringstream out;
  run_sweep(cfgs, ndjson_consumer(out), /*n_threads=*/4);

  std::istringstream in(out.str());
  std::vector<RunResult> parsed;
  for (std::string line; std::getline(in, line);) {
    RunResult r;
    std::string err;
    ASSERT_TRUE(result_from_json(line, &r, &err)) << err << "\n" << line;
    parsed.push_back(r);
  }
  ASSERT_EQ(parsed.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    // Sampling was armed, so the digest is a live part of the check.
    EXPECT_NE(serial[i].sampler_digest, 0u);
    EXPECT_TRUE(results_identical(parsed[i], serial[i]));
  }
}

TEST(ResultJson, MissingLatP999IsRejected) {
  const std::string json = drop_field(result_json(synth(1)), "lat_p999_ns");
  ASSERT_EQ(json.find("lat_p999_ns"), std::string::npos);
  RunResult r;
  std::string err;
  EXPECT_FALSE(result_from_json(json, &r, &err));
  EXPECT_NE(err.find("lat_p999_ns"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// The block protocol, once per block
// ---------------------------------------------------------------------------

/// Expected key and a one-field change deep inside each block type.
template <typename B>
struct BlockCase;

template <>
struct BlockCase<obs::SloResult> {
  static constexpr const char* kKey = "slo";
  static void perturb(obs::SloResult& b) { b.classes[0].windows[0].count++; }
};

template <>
struct BlockCase<obs::ForensicsResult> {
  static constexpr const char* kKey = "forensics";
  static void perturb(obs::ForensicsResult& b) {
    b.classes[0].windows[0].violations++;
  }
};

template <>
struct BlockCase<obs::FrontendResult> {
  static constexpr const char* kKey = "frontend";
  static void perturb(obs::FrontendResult& b) { b.queue_wait_max++; }
};

template <>
struct BlockCase<obs::ClusterResult> {
  static constexpr const char* kKey = "cluster";
  static void perturb(obs::ClusterResult& b) { b.hosts[1].steal++; }
};

template <typename B>
class ResultBlock : public ::testing::Test {
 protected:
  /// This block's for_each_block entry.
  void SetUp() override {
    for_each_block([&](const char* key, const char* digest_key, auto block,
                       auto digest) {
      if constexpr (std::is_same_v<decltype(block), B RunResult::*>) {
        key_ = key;
        digest_key_ = digest_key;
        block_ = block;
        digest_ = digest;
      }
    });
    ASSERT_NE(block_, nullptr);
    ASSERT_EQ(key_, BlockCase<B>::kKey);
    ASSERT_EQ(digest_key_, key_ + "_digest");
  }

  /// A result carrying only this block (from synth(i)) and its digest.
  RunResult only_block(std::uint64_t i) const {
    const RunResult s = synth(i);
    RunResult r;
    r.*block_ = s.*block_;
    r.*digest_ = s.*digest_;
    return r;
  }

  std::string key_;
  std::string digest_key_;
  B RunResult::*block_ = nullptr;
  std::uint64_t RunResult::*digest_ = nullptr;
};

using BlockTypes = ::testing::Types<obs::SloResult, obs::ForensicsResult,
                                    obs::FrontendResult, obs::ClusterResult>;
TYPED_TEST_SUITE(ResultBlock, BlockTypes);

TYPED_TEST(ResultBlock, RoundTripsByteAndBitIdentical) {
  const RunResult r = this->only_block(1);
  ASSERT_FALSE((r.*this->block_).empty());
  const std::string json = result_json(r);
  EXPECT_NE(json.find("\"" + this->key_ + "\":{"), std::string::npos);
  RunResult parsed;
  std::string err;
  ASSERT_TRUE(result_from_json(json, &parsed, &err)) << err;
  EXPECT_TRUE(parsed.*this->block_ == r.*this->block_);
  EXPECT_EQ(parsed.*this->digest_, (r.*this->block_).digest());
  EXPECT_TRUE(results_identical(parsed, r));
  EXPECT_EQ(result_json(parsed), json);
}

TYPED_TEST(ResultBlock, EmptyBlockIsOmittedAndItsDigestIsZero) {
  const TypeParam empty{};
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.digest(), 0u);
  const std::string json = result_json(RunResult{});
  EXPECT_NE(json.find("\"" + this->digest_key_ + "\":0"), std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"" + this->key_ + "\":"), std::string::npos) << json;
}

TYPED_TEST(ResultBlock, MissingDigestIsRejected) {
  const std::string json =
      drop_field(result_json(this->only_block(1)), this->digest_key_);
  ASSERT_EQ(json.find(this->digest_key_), std::string::npos);
  RunResult r;
  std::string err;
  EXPECT_FALSE(result_from_json(json, &r, &err));
  EXPECT_NE(err.find(this->digest_key_), std::string::npos) << err;
}

TYPED_TEST(ResultBlock, MalformedBlockIsRejectedNamingItsKey) {
  std::string json = result_json(RunResult{});
  json.insert(json.size() - 1, ",\"" + this->key_ + "\":[1]");
  RunResult r;
  std::string err;
  EXPECT_FALSE(result_from_json(json, &r, &err));
  EXPECT_NE(err.find(this->key_), std::string::npos) << err;
}

TYPED_TEST(ResultBlock, FoldIsOrderIndependent) {
  RunResult fwd, rev;
  std::uint64_t digest_xor = 0;
  for (std::uint64_t i = 0; i < 4; ++i) {
    fold_blocks(fwd, this->only_block(i));
    fold_blocks(rev, this->only_block(3 - i));
    digest_xor ^= synth(i).*this->digest_;
  }
  EXPECT_FALSE((fwd.*this->block_).empty());
  EXPECT_TRUE(fwd == rev);
  EXPECT_EQ(fwd.*this->digest_, digest_xor);
}

TYPED_TEST(ResultBlock, FoldIsTheSameInEveryOrderAcrossWorkloads) {
  // Three runs; where the block has classes, each run carries another
  // workload's class. All six fold orders give one block, with classes
  // in name order (two of the orders insert one in the middle).
  const std::vector<std::string> names = {"ab", "fe", "jbb"};
  std::vector<RunResult> runs;
  for (const std::string& name : names) {
    RunResult r = this->only_block(runs.size());
    if constexpr (requires(TypeParam b) { b.classes[0].name; }) {
      (r.*this->block_).classes[0].name = name;
      r.*this->digest_ = (r.*this->block_).digest();
    }
    runs.push_back(r);
  }
  std::vector<std::size_t> order = {0, 1, 2};
  RunResult first;
  do {
    RunResult acc;
    for (std::size_t i : order) fold_blocks(acc, runs[i]);
    if constexpr (requires(TypeParam b) { b.classes[0].name; }) {
      std::vector<std::string> got;
      for (const auto& c : (acc.*this->block_).classes) got.push_back(c.name);
      EXPECT_EQ(got, names);
    }
    if ((first.*this->block_).empty()) first = acc;
    EXPECT_TRUE(acc == first) << order[0] << order[1] << order[2];
  } while (std::next_permutation(order.begin(), order.end()));
}

TYPED_TEST(ResultBlock, FoldedBlockRoundTripsThroughResultJson) {
  // A sweep's folded blocks are written as a result too, so they must
  // pass the reader's consistency checks and come back bit-identical.
  SweepStats s;
  for (std::uint64_t i = 0; i < 4; ++i) s.add(this->only_block(i));
  ASSERT_FALSE((s.blocks().*this->block_).empty());
  const std::string json = result_json(s.blocks());
  RunResult parsed;
  std::string err;
  ASSERT_TRUE(result_from_json(json, &parsed, &err)) << err;
  EXPECT_TRUE(results_identical(parsed, s.blocks()));
  EXPECT_EQ(result_json(parsed), json);
}

TYPED_TEST(ResultBlock, EqualitySeesOneFieldInsideTheBlock) {
  const RunResult a = synth(2);
  RunResult b = a;
  ASSERT_TRUE(a == b);
  BlockCase<TypeParam>::perturb(b.*this->block_);
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(results_identical(a, b));
  b.*this->block_ = a.*this->block_;
  EXPECT_TRUE(results_identical(a, b));
}

}  // namespace
}  // namespace irs::exp
