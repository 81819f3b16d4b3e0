// The central placement/migration decision loop of a cluster::Cluster —
// the "scheduler" half of the collector→scheduler split (the per-host
// sampling half is src/cluster/collector.h). Mirrors the dynamic-VM-
// scheduler architecture the ROADMAP names: per-host collector daemons
// feed one decision loop that places VMs at admission and live-migrates
// them while the cluster runs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace irs::cluster {

class Cluster;

/// Placement policies under comparison (fig_cluster):
///  - kRandom:   uniform host choice at admission, never migrates — the
///               oblivious baseline.
///  - kFirstFit: first-fit bin-packing on vCPU count at admission, never
///               migrates — the consolidating baseline.
///  - kIrs:      least-loaded spread at admission, plus a live decision
///               loop that reads the collectors' LHP/LWP charge-back and
///               steal deltas and evicts the noisiest migratable
///               co-tenant from the host where the protected (foreground)
///               VM is burning SLO budget.
enum class Policy : std::uint8_t { kRandom = 0, kFirstFit = 1, kIrs = 2 };

[[nodiscard]] const char* policy_name(Policy p);
/// Inverse of policy_name ("random" / "firstfit" / "irs"); false on an
/// unknown name, leaving *out untouched.
bool policy_from_name(std::string_view name, Policy* out);

/// Decision cadence of the kIrs loop.
inline constexpr sim::Duration kDecidePeriod = sim::milliseconds(30);
/// Fraction of a collector window the protected VM must spend stolen
/// before the kIrs loop evicts a co-tenant.
inline constexpr double kBurnFrac = 0.1;
/// Minimum spacing between migrations of one VM.
inline constexpr sim::Duration kCooldown = sim::milliseconds(90);

class Scheduler {
 public:
  Scheduler(Cluster& cluster, Policy policy, std::uint64_t seed);

  /// Admission placement for a VM with `n_vcpus` vCPUs; also records the
  /// load for subsequent placements. Called for migratable VMs.
  [[nodiscard]] int place(int n_vcpus);
  /// Record a fixed VM's footprint so bin-packing sees it.
  void note_fixed(int host, int n_vcpus);

  /// Arm the decision loop (kIrs only; the baselines stay static).
  void start();

  [[nodiscard]] Policy policy() const { return policy_; }

 private:
  void decide();

  Cluster& cluster_;
  Policy policy_;
  sim::Rng rng_;
  std::vector<int> placed_vcpus_;  // per host, for bin-packing/spread
};

}  // namespace irs::cluster
