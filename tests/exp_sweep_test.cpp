// Tests for the parallel sweep runner: seed derivation, pool coverage, and
// the bit-identical-to-serial guarantee the figure benches rely on.
// The Sweep* suites also run under TSan (scripts/tsan.sh / the
// sweep_determinism_tsan CTest job) to prove the pool is race-free.
#include "src/exp/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/exp/runner.h"

namespace irs::exp {
namespace {

/// Field-by-field exact equality (doubles compared bitwise-equal via ==;
/// deterministic simulations must reproduce them exactly).
void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.fg_makespan, b.fg_makespan);
  EXPECT_EQ(a.fg_util_vs_fair, b.fg_util_vs_fair);
  EXPECT_EQ(a.fg_efficiency, b.fg_efficiency);
  EXPECT_EQ(a.bg_progress_rate, b.bg_progress_rate);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.lat_mean, b.lat_mean);
  EXPECT_EQ(a.lat_p99, b.lat_p99);
  EXPECT_EQ(a.lhp, b.lhp);
  EXPECT_EQ(a.lwp, b.lwp);
  EXPECT_EQ(a.irs_migrations, b.irs_migrations);
  EXPECT_EQ(a.sa_sent, b.sa_sent);
  EXPECT_EQ(a.sa_acked, b.sa_acked);
  EXPECT_EQ(a.sa_delay_avg, b.sa_delay_avg);
}

/// A small fig05-style grid: apps x strategies x seeds, scaled down so the
/// whole sweep stays fast.
std::vector<ScenarioConfig> small_grid() {
  std::vector<ScenarioConfig> cfgs;
  for (const char* app : {"blackscholes", "streamcluster"}) {
    for (const auto strategy :
         {core::Strategy::kBaseline, core::Strategy::kIrs}) {
      ScenarioConfig cfg;
      cfg.fg = app;
      cfg.strategy = strategy;
      cfg.work_scale = 0.05;
      cfg.seed = 42;
      for (const auto& seeded : seed_grid(cfg, 2)) cfgs.push_back(seeded);
    }
  }
  return cfgs;
}

TEST(Sweep, DeriveSeedIsStableAndWellSpread) {
  // Pinned values: changing the derivation silently invalidates every
  // recorded benchmark, so it must fail loudly here.
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ULL, 1ULL, 42ULL}) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      seen.insert(derive_seed(base, i));
    }
  }
  EXPECT_EQ(seen.size(), 300u);  // no collisions across bases/indices
}

TEST(Sweep, ParallelForCoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, [&](std::size_t i) { ++hits[i]; }, /*n_threads=*/8);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Sweep, ParallelForPropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(
          100,
          [](std::size_t i) {
            if (i == 37) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

TEST(Sweep, JobsHonoursEnvVar) {
  setenv("IRS_BENCH_JOBS", "3", 1);
  EXPECT_EQ(sweep_jobs(), 3);
  unsetenv("IRS_BENCH_JOBS");
  EXPECT_GE(sweep_jobs(), 1);
}

/// `fn()` throws std::invalid_argument naming `var` and `value`.
template <typename Fn>
void expect_bad_env(const char* var, const char* value, Fn fn) {
  SCOPED_TRACE(std::string(var) + "=" + value);
  setenv(var, value, 1);
  try {
    fn();
    ADD_FAILURE() << "no exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(var), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find(std::string("'") + value + "'"),
              std::string::npos)
        << e.what();
  }
  unsetenv(var);
}

TEST(Sweep, MalformedJobsEnvVarThrowsNamingIt) {
  for (const char* v : {"zz", "0", "-2", "2x", "", "99999999999"}) {
    expect_bad_env("IRS_BENCH_JOBS", v, [] { sweep_jobs(); });
  }
}

TEST(Sweep, MalformedSeedsEnvVarThrowsNamingIt) {
  for (const char* v : {"abc", "0", "-2", "2x", ""}) {
    expect_bad_env("IRS_BENCH_SEEDS", v, [] { bench_seeds(); });
  }
  setenv("IRS_BENCH_SEEDS", "3", 1);
  EXPECT_EQ(bench_seeds(), 3);
  unsetenv("IRS_BENCH_SEEDS");
}

// The one number parser behind both CLIs and the IRS_BENCH_* variables
// takes the whole argument and nothing below its bound.
template <typename T>
struct ParseCase {
  const char* text;
  T min;
  bool ok;
  T want = 0;
};

template <typename T>
void check_parse(const std::vector<ParseCase<T>>& cases) {
  for (const ParseCase<T>& c : cases) {
    SCOPED_TRACE(std::string("'") + c.text + "'");
    if (c.ok) {
      EXPECT_EQ(parse_number("--flag", c.text, c.min), c.want);
      continue;
    }
    try {
      parse_number("--flag", c.text, c.min);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--flag '") + c.text +
                                           "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ParseNumber, TakesTheWholeArgumentAtOrAboveTheBound) {
  check_parse<int>({{"0", 0, true, 0},
                    {"7", 0, true, 7},
                    {"2", 2, true, 2},
                    {"", 0, false},
                    {"2x", 0, false},
                    {"abc", 0, false},
                    {" 1", 0, false},
                    {"+1", 0, false},
                    {"-1", 0, false},
                    {"1", 2, false},
                    {"99999999999", 0, false}});
  check_parse<std::uint64_t>({{"0", 0, true, 0},
                              {"7", 0, true, 7},
                              {"18446744073709551615", 0, true,
                               18446744073709551615ULL},
                              {"", 0, false},
                              {"2x", 0, false},
                              {"abc", 0, false},
                              {" 1", 0, false},
                              {"-1", 0, false},
                              {"18446744073709551616", 0, false}});
  check_parse<double>({{"0", 0.0, true, 0.0},
                       {"7", 0.0, true, 7.0},
                       {"1500.5", 0.0, true, 1500.5},
                       {"", 0.0, false},
                       {"2x", 0.0, false},
                       {"abc", 0.0, false},
                       {" 1", 0.0, false},
                       {"-5", 0.0, false},
                       {"inf", 0.0, false},
                       {"nan", 0.0, false},
                       {"1e999", 0.0, false}});
}

TEST(Sweep, OneThreadAndManyThreadsAreBitIdentical) {
  const auto cfgs = small_grid();
  const auto serial = run_sweep(cfgs, /*n_threads=*/1);
  const auto parallel = run_sweep(cfgs, /*n_threads=*/4);
  ASSERT_EQ(serial.size(), cfgs.size());
  ASSERT_EQ(parallel.size(), cfgs.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(serial[i], parallel[i]);
  }
}

TEST(Sweep, StreamingConsumerDeliversInOrderAndStaysBitIdentical) {
  const auto cfgs = small_grid();
  const auto serial = run_sweep(cfgs, /*n_threads=*/1);

  std::vector<std::size_t> order;
  std::vector<RunResult> streamed(cfgs.size());
  const auto parallel = run_sweep(
      cfgs,
      [&](std::size_t i, const RunResult& r) {
        order.push_back(i);
        streamed[i] = r;
      },
      /*n_threads=*/4);

  // Every run delivered exactly once, strictly in index order, regardless
  // of completion order on the pool.
  ASSERT_EQ(order.size(), cfgs.size());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);

  // The streamed results, the returned vector, and the serial reference
  // are all the same.
  ASSERT_EQ(parallel.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(serial[i], parallel[i]);
    expect_identical(serial[i], streamed[i]);
  }
}

TEST(Sweep, NullConsumerBehavesLikePlainSweep) {
  const auto cfgs = small_grid();
  const auto plain = run_sweep(cfgs, /*n_threads=*/2);
  const auto with_null = run_sweep(cfgs, SweepConsumer{}, /*n_threads=*/2);
  ASSERT_EQ(plain.size(), with_null.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(plain[i], with_null[i]);
  }
}

TEST(Sweep, RunAveragedMatchesSerialRunScenarioCalls) {
  ScenarioConfig cfg;
  cfg.fg = "blackscholes";
  cfg.strategy = core::Strategy::kIrs;
  cfg.work_scale = 0.05;
  cfg.seed = 7;
  constexpr int kSeeds = 3;

  std::vector<RunResult> serial;
  for (int i = 0; i < kSeeds; ++i) {
    ScenarioConfig c = cfg;
    c.seed = derive_seed(cfg.seed, static_cast<std::uint64_t>(i));
    serial.push_back(run_scenario(c));
  }
  expect_identical(run_averaged(cfg, kSeeds), average_results(serial));
}

}  // namespace
}  // namespace irs::exp
