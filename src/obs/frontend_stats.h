// Open-loop front-end accounting: the request-conservation ledger of one
// wl::FrontendWorkload run (see src/wl/frontend.h).
//
// Every arrival is exactly one of: accepted, tail-dropped (accept queue
// full), admission-rejected (estimated queue delay over budget), or shed
// (SLO-burn-triggered load shedding). Accepted requests either complete or
// are still in flight when the run quiesces. The conservation identity
//
//   arrivals == completed + tail_dropped + admit_rejected + shed + in_flight
//
// is a test invariant (tests/frontend_test.cpp), and like every obs result
// the block is integer-exact, folds across a sweep's runs order-independently
// (fold_frontend), serializes round-trip (frontend_json /
// frontend_from_value), and condenses to one FNV-1a digest() word.
#pragma once

#include <cstdint>
#include <string>

#include "src/obs/json.h"
#include "src/obs/json_reader.h"
#include "src/sim/time.h"

namespace irs::obs {

struct FrontendResult {
  std::uint64_t arrivals = 0;
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t tail_dropped = 0;    // accept queue was full
  std::uint64_t admit_rejected = 0;  // admission controller said no
  std::uint64_t shed = 0;            // SLO-burn load shedding
  std::uint64_t in_flight = 0;       // accepted, not completed at quiesce
  std::uint64_t conn_setups = 0;     // connections (re-)established
  std::uint64_t keepalive_reuses = 0;
  std::uint64_t max_queue_depth = 0;
  /// Accept-queue wait summed / maxed over completed requests (the same
  /// quantity forensics charges to Cause::kQueueWait).
  sim::Duration queue_wait_total = 0;
  sim::Duration queue_wait_max = 0;

  /// Requests refused at the door, whatever the policy called it.
  [[nodiscard]] std::uint64_t dropped() const {
    return tail_dropped + admit_rejected;
  }
  /// No front-end ran (every field at its default).
  [[nodiscard]] bool empty() const { return *this == FrontendResult{}; }
  /// FNV-1a over every field. 0 is reserved for the empty result.
  [[nodiscard]] std::uint64_t digest() const;
  bool operator==(const FrontendResult& o) const = default;
};

/// Exact fold of `r` into `acc` (for sweep averaging): counters add, the
/// max fields take the max. Folding N runs in any order is bit-identical
/// to any other order.
void fold_frontend(FrontendResult& acc, const FrontendResult& r);

/// Serialize as one JSON object on an open writer (fixed key order,
/// integers exact). Inverse below round-trips bit-identically.
void frontend_json(JsonWriter& w, const FrontendResult& f);
bool frontend_from_value(const JsonValue& v, FrontendResult* out,
                         std::string* err);

}  // namespace irs::obs
