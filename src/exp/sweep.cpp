#include "src/exp/sweep.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>

namespace irs::exp {

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t run_index) {
  // SplitMix64 step keyed by the base seed. +1 keeps run 0 of base 0 away
  // from the all-zero state.
  std::uint64_t z = base_seed + (run_index + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int sweep_jobs() {
  if (const char* s = std::getenv("IRS_BENCH_JOBS")) {
    return parse_number("IRS_BENCH_JOBS", s, 1);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  int n_threads) {
  if (n == 0) return;
  std::size_t jobs =
      static_cast<std::size_t>(n_threads > 0 ? n_threads : sweep_jobs());
  if (jobs > n) jobs = n;
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Workers take run indices from one shared counter: each run is a whole
  // simulation, so one atomic increment per run is noise, and a slow run
  // never holds back indices another worker could take.
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr first_error;

  auto worker = [&] {
    for (std::size_t idx = next++; idx < n; idx = next++) {
      try {
        fn(idx);
      } catch (...) {
        const std::lock_guard<std::mutex> lk(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(jobs - 1);
  for (std::size_t w = 1; w < jobs; ++w) threads.emplace_back(worker);
  worker();
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::vector<RunResult> run_sweep(const std::vector<ScenarioConfig>& cfgs,
                                 int n_threads) {
  std::vector<RunResult> results(cfgs.size());
  parallel_for(
      cfgs.size(), [&](std::size_t i) { results[i] = run_scenario(cfgs[i]); },
      n_threads);
  return results;
}

std::vector<RunResult> run_sweep(const std::vector<ScenarioConfig>& cfgs,
                                 const SweepConsumer& consumer,
                                 int n_threads) {
  if (!consumer) return run_sweep(cfgs, n_threads);
  std::vector<RunResult> results(cfgs.size());
  // In-order delivery: a finished run is marked done, and whichever worker
  // advances the cursor delivers every consecutive completed result under
  // the mutex. Thread scheduling affects only *who* delivers, never the
  // order or the content.
  std::vector<char> done(cfgs.size(), 0);
  std::size_t next = 0;
  std::mutex mu;
  parallel_for(
      cfgs.size(),
      [&](std::size_t i) {
        RunResult r = run_scenario(cfgs[i]);
        const std::lock_guard<std::mutex> lk(mu);
        results[i] = r;
        done[i] = 1;
        while (next < cfgs.size() && done[next] != 0) {
          const std::size_t k = next++;
          consumer(k, results[k]);
        }
      },
      n_threads);
  return results;
}

std::vector<ScenarioConfig> seed_grid(const ScenarioConfig& cfg,
                                      int n_seeds) {
  std::vector<ScenarioConfig> grid;
  grid.reserve(static_cast<std::size_t>(n_seeds));
  for (int i = 0; i < n_seeds; ++i) {
    ScenarioConfig c = cfg;
    c.seed = derive_seed(cfg.seed, static_cast<std::uint64_t>(i));
    grid.push_back(c);
  }
  return grid;
}

RunResult average_results(const std::vector<RunResult>& rs) {
  RunResult acc;
  if (rs.empty()) return acc;
  const double n = static_cast<double>(rs.size());
  RunResult::fields([&](const char*, auto m, auto rule) {
    constexpr obs::Fold kRule = decltype(rule)::value;
    using T = std::remove_reference_t<decltype(acc.*m)>;
    if constexpr (kRule == obs::Fold::kMean) {
      double sum = 0;
      for (const RunResult& r : rs) sum += static_cast<double>(r.*m);
      acc.*m = static_cast<T>(sum / n);
    } else {
      for (const RunResult& r : rs) {
        if constexpr (kRule == obs::Fold::kOr) {
          acc.*m = acc.*m || r.*m;
        } else if constexpr (kRule == obs::Fold::kXor) {
          acc.*m ^= r.*m;
        } else {
          acc.*m += r.*m;
        }
      }
      if constexpr (kRule == obs::Fold::kIntMean) acc.*m /= rs.size();
    }
  });
  for (const RunResult& r : rs) fold_blocks(acc, r);
  set_block_digests(acc);
  return acc;
}

}  // namespace irs::exp
