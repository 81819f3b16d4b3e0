#include "src/exp/sweep.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

namespace irs::exp {

namespace {

/// One worker's deque of run indices. The owner pops from the front; idle
/// workers steal from the back, so an owner and a thief only collide on the
/// last element (classic Chase-Lev shape, mutex-guarded for simplicity —
/// the tasks here are whole simulations, microseconds of locking per run
/// is noise).
class WorkerQueue {
 public:
  void push(std::size_t v) {
    const std::lock_guard<std::mutex> lk(mu_);
    q_.push_back(v);
  }
  bool pop_front(std::size_t& v) {
    const std::lock_guard<std::mutex> lk(mu_);
    if (q_.empty()) return false;
    v = q_.front();
    q_.pop_front();
    return true;
  }
  bool steal_back(std::size_t& v) {
    const std::lock_guard<std::mutex> lk(mu_);
    if (q_.empty()) return false;
    v = q_.back();
    q_.pop_back();
    return true;
  }

 private:
  std::mutex mu_;
  std::deque<std::size_t> q_;
};

}  // namespace

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
    const int n = std::atoi(s);
    if (n > 0) return n;
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

  std::vector<std::unique_ptr<WorkerQueue>> queues;
  queues.reserve(jobs);
  for (std::size_t w = 0; w < jobs; ++w) {
    queues.push_back(std::make_unique<WorkerQueue>());
  }
  // Deal indices round-robin so every worker starts with a contiguous-ish
  // share; stealing evens out runs of uneven cost.
  for (std::size_t i = 0; i < n; ++i) queues[i % jobs]->push(i);

  std::mutex err_mu;
  std::exception_ptr first_error;

  auto worker = [&](std::size_t me) {
    std::size_t idx = 0;
    while (true) {
      bool got = queues[me]->pop_front(idx);
      for (std::size_t k = 1; !got && k < jobs; ++k) {
        got = queues[(me + k) % jobs]->steal_back(idx);
      }
      if (!got) return;  // every queue drained; tasks never spawn tasks
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
  for (std::size_t w = 1; w < jobs; ++w) threads.emplace_back(worker, w);
  worker(0);
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
  double makespan = 0, util = 0, eff = 0, bg_rate = 0, thr = 0;
  double lat_mean = 0, lat_p99 = 0, lat_p999 = 0, sa_delay = 0;
  for (const RunResult& r : rs) {
    acc.finished = acc.finished || r.finished;
    makespan += static_cast<double>(r.fg_makespan);
    util += r.fg_util_vs_fair;
    eff += r.fg_efficiency;
    bg_rate += r.bg_progress_rate;
    thr += r.throughput;
    lat_mean += static_cast<double>(r.lat_mean);
    lat_p99 += static_cast<double>(r.lat_p99);
    lat_p999 += static_cast<double>(r.lat_p999);
    sa_delay += static_cast<double>(r.sa_delay_avg);
    acc.lhp += r.lhp;
    acc.lwp += r.lwp;
    acc.irs_migrations += r.irs_migrations;
    acc.sa_sent += r.sa_sent;
    acc.sa_acked += r.sa_acked;
    // XOR keeps the digest order-independent and zero when sampling was off
    // everywhere; an average would be meaningless for a hash.
    acc.sampler_digest ^= r.sampler_digest;
    acc.trace_dropped += r.trace_dropped;
    acc.trace_total_recorded += r.trace_total_recorded;
    fold_blocks(acc, r);
  }
  const double n = static_cast<double>(rs.size());
  acc.fg_makespan = static_cast<sim::Duration>(makespan / n);
  acc.fg_util_vs_fair = util / n;
  acc.fg_efficiency = eff / n;
  acc.bg_progress_rate = bg_rate / n;
  acc.throughput = thr / n;
  acc.lat_mean = static_cast<sim::Duration>(lat_mean / n);
  acc.lat_p99 = static_cast<sim::Duration>(lat_p99 / n);
  acc.lat_p999 = static_cast<sim::Duration>(lat_p999 / n);
  acc.sa_delay_avg = static_cast<sim::Duration>(sa_delay / n);
  acc.lhp /= rs.size();
  acc.lwp /= rs.size();
  return acc;
}

}  // namespace irs::exp
