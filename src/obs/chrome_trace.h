// Chrome trace_event / Perfetto JSON exporter.
//
// Renders a run's trace as a timeline loadable in chrome://tracing or
// ui.perfetto.dev:
//   - one "pCPUs" process with a lane per pCPU, showing which vCPU is
//     on-CPU as complete ("X") spans, the runstate replay's (runstate.h);
//   - one "vCPUs" process mirroring the same spans per vCPU lane, where SA
//     send→ack pairs render as flow ("s"/"f") arrows and LHP/LWP events as
//     instants ("i");
//   - optionally (ChromeTraceOptions::guest_lanes) a "guest tasks" process
//     with a lane per vCPU showing which guest task is on-vCPU, folded from
//     kGuestSwitch records, plus migration flow arrows from kMigrate;
//   - optionally (ChromeTraceOptions::counters) Perfetto "C" counter tracks
//     rendered from sampler series;
//   - optionally (ChromeTraceOptions::forensics) a "requests" process with
//     a lane per serving task, plus per-cause counter tracks;
//   - a truncation metadata instant when the ring wrapped and dropped
//     records, placed at retained_head() so the gap is visible where it
//     actually is.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/obs/sampler.h"
#include "src/obs/slo.h"
#include "src/sim/trace.h"

namespace irs::obs {

/// Topology context the exporter needs but the raw records don't carry.
struct VcpuInfo {
  int id = 0;          // global vCPU id (TraceRecord::a in hv records)
  std::string vm;      // owning VM name
  int idx = 0;         // index within the VM
};

/// Guest task names, for labelling guest-lane spans and attribution rows.
/// Task ids are VM-local, so the pair (vm, id) identifies a task.
struct TaskInfo {
  int id = 0;
  std::string vm;
  std::string name;
};

struct TraceMeta {
  std::string title = "irs run";
  int n_pcpus = 0;
  std::vector<VcpuInfo> vcpus;
  std::vector<TaskInfo> tasks;
  sim::Time start = 0;
  sim::Time end = 0;
  std::uint64_t dropped = 0;         // Trace::dropped()
  std::uint64_t total_recorded = 0;  // Trace::total_recorded()
};

/// Where complete scheduler evidence begins — the one truncation head the
/// attribution profiler, request forensics and the exporter's "trace
/// truncated" marker share. -1 when the ring dropped nothing; otherwise the
/// time of the oldest retained ring record, i.e. the first record that is
/// not a synthesized kReqBegin/kReqEnd (request brackets come from a side
/// log and never drop; a back-dated kReqBegin can sort ahead of the ring).
/// meta.end when no ring record survives at all. `records` is a merged
/// stream, or the `older` segment of a ring's TraceView, which starts at
/// the oldest retained record.
sim::Time retained_head(std::span<const sim::TraceRecord> records,
                        const TraceMeta& meta);

struct ChromeTraceOptions {
  bool guest_lanes = false;
  /// When set, each series renders as a Perfetto "C" counter track.
  const std::vector<SeriesData>* counters = nullptr;
  /// When set, each SLO class renders per-window counter tracks
  /// ("slo:<class>:p50/p99/p999" in ms and "slo:<class>:burn", the
  /// error-budget burn rate), stepped at window starts.
  const SloResult* slo = nullptr;
  /// When set, a "requests" process renders one lane per serving task,
  /// each kReqBegin/kReqEnd pair a complete span (folded by request id),
  /// and each violating window renders per-cause counter tracks
  /// ("why:<class>:<cause>" in ms of latency charged), stepped at window
  /// starts — the "why did p999 move" overlay for the SLO tracks above.
  const struct ForensicsResult* forensics = nullptr;
};

/// Records must be in snapshot order: oldest first, as Trace::snapshot()
/// returns them (with_request_spans() keeps that order).
std::string chrome_trace_json(const std::vector<sim::TraceRecord>& records,
                              const TraceMeta& meta,
                              const ChromeTraceOptions& opt);

}  // namespace irs::obs
