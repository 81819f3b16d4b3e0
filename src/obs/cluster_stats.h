// Cluster placement & live-migration accounting: the ledger of one
// cluster::Cluster run (see src/cluster/cluster.h).
//
// Every migratable VM is placed on exactly one host at add time and is
// assigned to exactly one host at every instant thereafter (assignment
// flips atomically at the migration decision; the modeled downtime only
// delays when the destination replica starts executing). The conservation
// identities
//
//   placed_i + migr_in_i - migr_out_i == active_end_i      (per host i)
//   sum_i migr_in_i == sum_i migr_out_i == migrations      (cluster-wide)
//   sum_i placed_i == vms
//
// are test invariants (tests/cluster_test.cpp), and like every obs result
// the block is integer-exact, folds across a sweep's runs order-independently
// (fold_cluster), serializes round-trip (cluster_json / cluster_from_value),
// and condenses to one FNV-1a digest() word.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/json_reader.h"
#include "src/sim/time.h"

namespace irs::obs {

/// One host's slice of the placement ledger plus the collector's view of
/// it (steal / LHP / LWP deltas summed over every sample window).
struct ClusterHostLedger {
  std::uint64_t placed = 0;      // initial placements
  std::uint64_t migr_in = 0;     // migrations targeting this host
  std::uint64_t migr_out = 0;    // migrations evicting from this host
  std::uint64_t active_end = 0;  // VMs assigned here when the run ended
  std::uint64_t samples = 0;     // collector samples taken on this host
  std::uint64_t lhp = 0;         // collector-observed LHP events
  std::uint64_t lwp = 0;         // collector-observed LWP events
  sim::Duration steal = 0;       // collector-observed steal time

  bool operator==(const ClusterHostLedger& o) const = default;
};

struct ClusterResult {
  std::uint32_t n_hosts = 0;
  /// Numeric policy id (cluster::Policy). Folds as max so a mixed-policy
  /// sweep folds order-independently; per-run it is exact.
  std::uint32_t policy = 0;
  std::uint64_t vms = 0;             // logical VMs (fixed + migratable)
  std::uint64_t migratable = 0;      // VMs the scheduler may move
  std::uint64_t decisions = 0;       // scheduler decision-loop evaluations
  std::uint64_t migrations = 0;      // live migrations executed
  std::uint64_t in_transit_end = 0;  // migrations still in downtime at end
  sim::Duration downtime_total = 0;  // summed modeled downtime
  std::vector<ClusterHostLedger> hosts;  // indexed by host id

  /// No cluster ran (every field at its default).
  [[nodiscard]] bool empty() const { return *this == ClusterResult{}; }
  /// FNV-1a over every field. 0 is reserved for the empty result.
  [[nodiscard]] std::uint64_t digest() const;
  bool operator==(const ClusterResult& o) const = default;
};

/// Exact fold of `r` into `acc` (for sweep averaging): counters add
/// element-wise (the hosts vector grows to the larger size), n_hosts and
/// policy take the max. Folding N runs in any order is bit-identical to
/// any other order.
void fold_cluster(ClusterResult& acc, const ClusterResult& r);

/// Serialize as one JSON object on an open writer (fixed key order,
/// integers exact; hosts as [[placed,in,out,active,samples,lhp,lwp,
/// steal_ns],..]). Inverse below round-trips bit-identically.
void cluster_json(JsonWriter& w, const ClusterResult& c);
bool cluster_from_value(const JsonValue& v, ClusterResult* out,
                        std::string* err);

}  // namespace irs::obs
