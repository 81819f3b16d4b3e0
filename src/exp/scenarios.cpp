#include "src/exp/scenarios.h"

#include <memory>

#include "src/wl/hog.h"
#include "src/wl/registry.h"

namespace irs::exp {

double fig1a_slowdown(const std::string& app, std::uint64_t seed) {
  ScenarioConfig alone;
  alone.fg = app;
  alone.bg = "";  // no interference
  alone.seed = seed;
  const RunResult base = run_scenario(alone);

  ScenarioConfig interfered = alone;
  interfered.bg = "hog";
  interfered.n_inter = 1;
  const RunResult r = run_scenario(interfered);
  if (base.fg_makespan <= 0) return 0;
  return static_cast<double>(r.fg_makespan) /
         static_cast<double>(base.fg_makespan);
}

MigrationLatencyResult fig1b_migration_latency(int n_colocated_vms,
                                               int samples,
                                               std::uint64_t seed) {
  core::WorldConfig wc;
  wc.n_pcpus = 4;
  wc.strategy = core::Strategy::kBaseline;
  wc.seed = seed;
  core::World world(wc);

  hv::VmConfig fg_cfg;
  fg_cfg.name = "fg";
  fg_cfg.n_vcpus = 4;
  fg_cfg.pin_map = {0, 1, 2, 3};
  const hv::VmId fg = world.add_vm(fg_cfg, false);
  // The process to migrate: a CPU-bound task that starts on vCPU 0 (the
  // contended one). It never blocks, so it stays "current" there and the
  // only way to move it is the stop-based migration path.
  world.attach(fg, std::make_unique<wl::HogWorkload>(1));

  for (int i = 0; i < n_colocated_vms; ++i) {
    hv::VmConfig bg_cfg;
    bg_cfg.name = "bg" + std::to_string(i);
    bg_cfg.n_vcpus = 1;
    bg_cfg.pin_map = {0};  // all interference shares pCPU 0 with vCPU 0
    const hv::VmId bg = world.add_vm(bg_cfg, false);
    world.attach(bg, std::make_unique<wl::HogWorkload>(1));
  }

  world.start();
  world.run_for(sim::milliseconds(100));  // settle

  guest::GuestKernel& k = world.kernel(fg);
  guest::Task& victim = k.task(0);

  MigrationLatencyResult result;
  double total_ms = 0;
  for (int i = 0; i < samples; ++i) {
    // Let the system run a pseudo-random amount so requests land at
    // arbitrary phases of the 30 ms scheduling pattern.
    world.run_for(sim::milliseconds(17) + (i * 7919) % 23 * sim::kMillisecond);
    sim::Duration measured = -1;
    k.cpu(0).request_stop_migration(victim, 1, [&](sim::Duration d) {
      measured = d;
      world.engine().stop();
    });
    // Run until the callback fires.
    world.engine().run();
    total_ms += sim::to_ms(measured);
    result.max_ms = std::max(result.max_ms, sim::to_ms(measured));
    ++result.samples;
    // Move the task back to vCPU 0 (from the quiet side this is fast).
    k.cpu(victim.cpu()).request_stop_migration(
        victim, 0, [&](sim::Duration) { world.engine().stop(); });
    world.engine().run();
  }
  result.mean_ms = total_ms / std::max(1, result.samples);
  return result;
}

}  // namespace irs::exp
