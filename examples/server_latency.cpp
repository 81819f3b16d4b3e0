// Server-latency demo (paper §5.3): a SPECjbb-like multi-threaded server
// VM next to CPU-bound neighbours. Prints throughput and the latency
// distribution under each scheduling strategy.
//
//   $ ./examples/server_latency [n_interfering_hogs]
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "src/core/world.h"
#include "src/wl/registry.h"
#include "src/wl/server.h"

int main(int argc, char** argv) {
  using namespace irs;
  const int n_hogs = argc > 1 ? std::atoi(argv[1]) : 2;

  std::printf("SPECjbb-like server (4 warehouses, 4 vCPUs) vs %d CPU hog(s)\n\n",
              n_hogs);
  std::printf("%-10s %10s %10s %10s %10s %10s\n", "strategy", "txn/s",
              "mean", "p50", "p99", "max");

  for (auto strategy :
       {core::Strategy::kBaseline, core::Strategy::kPle,
        core::Strategy::kRelaxedCo, core::Strategy::kIrs}) {
    core::WorldConfig wc;
    wc.strategy = strategy;
    wc.seed = 21;
    core::World world(wc);

    hv::VmConfig server_cfg;
    server_cfg.name = "server";
    server_cfg.n_vcpus = 4;
    server_cfg.pin_map = {0, 1, 2, 3};
    const auto server = world.add_vm(server_cfg, /*irs_capable=*/true);
    auto& wl = world.attach(
        server, std::make_unique<wl::JbbWorkload>(4, sim::seconds(3)));

    if (n_hogs > 0) {
      hv::VmConfig bg_cfg;
      bg_cfg.name = "neighbours";
      bg_cfg.n_vcpus = n_hogs;
      for (int i = 0; i < n_hogs; ++i) bg_cfg.pin_map.push_back(i);
      const auto bg = world.add_vm(bg_cfg, false);
      wl::WorkloadOptions opts;
      opts.n_threads = n_hogs;
      world.attach(bg, wl::make_workload("hog", opts));
    }

    world.start();
    world.run_until_finished(server, sim::seconds(30));

    const wl::Serving& jbb = *wl.serving();
    std::printf("%-10s %10.0f %9.0fus %9.0fus %9.0fus %9.1fms\n",
                core::strategy_name(strategy), jbb.throughput(),
                sim::to_us(jbb.latency().mean()),
                sim::to_us(jbb.latency().percentile(50)),
                sim::to_us(jbb.latency().percentile(99)),
                sim::to_ms(jbb.latency().max()));
  }
  return 0;
}
