#include "src/obs/attribution.h"

#include <algorithm>

#include "src/obs/runstate.h"

namespace irs::obs {

namespace {

/// The replay's steal windows, charged to the task they cost.
struct Charger : RunstateHooks {
  AttributionResult res;
  std::map<int, std::string> vcpu_vm;
  std::map<int, std::int32_t> lane;  // global vCPU -> on-CPU task (-1 idle)
  // global vCPU -> task whose guest-side wake last targeted it. Covers wake
  // windows on idle vCPUs: the kGuestWake precedes the kHvWake (same
  // timestamp, recorded first), but the task only reaches the lane when the
  // vCPU next runs — so the lane alone would leave the wait uncharged.
  std::map<int, std::int32_t> wake_hint;
  // (vm, task) -> charge bucket.
  std::map<std::pair<std::string, std::int32_t>, TaskCharge> buckets;

  static std::int32_t find(const std::map<int, std::int32_t>& m, int vcpu) {
    return m.contains(vcpu) ? m.at(vcpu) : -1;
  }

  /// A window the sync layer classified names its task; any other is
  /// charged to the task on the lane, or, for a wake onto an idle lane,
  /// to the task whose wake caused it.
  void window_open(int vcpu, StealWindow& w) {
    if (w.task >= 0) return;
    w.task = find(lane, vcpu);
    if (w.task < 0 && w.wake) w.task = find(wake_hint, vcpu);
  }

  void window_close(int vcpu, const StealWindow& w, sim::Time end) {
    const sim::Duration dur = end - w.start;
    if (dur <= 0) return;
    std::int32_t task = w.task;
    // The guest-side wake may land after the hv-side kHvWake (boot-time
    // enqueues share the start timestamp), so re-check the hint on close.
    if (task < 0 && w.wake) task = find(wake_hint, vcpu);
    res.total_steal += dur;
    if (task < 0) {
      res.uncharged += dur;
      return;
    }
    res.charged += dur;
    auto vm = vcpu_vm.find(vcpu);
    TaskCharge& b = buckets[{vm != vcpu_vm.end() ? vm->second : "?", task}];
    b.total += dur;
    ++b.windows;
    if (w.cls == StealClass::kLhp) b.lhp += dur;
    if (w.cls == StealClass::kLwp) b.lwp += dur;
    if (!w.lock.empty()) b.by_lock[w.lock.c_str()] += dur;  // LHP/LWP only
  }
};

}  // namespace

AttributionResult attribute(const std::vector<sim::TraceRecord>& records,
                            const TraceMeta& meta) {
  Charger ch;
  for (const auto& v : meta.vcpus) ch.vcpu_vm[v.id] = v.vm;
  RunstateReplay replay;
  for (const auto& r : records) {
    if (r.kind == sim::TraceKind::kGuestSwitch) {
      ch.lane[r.a] = r.b;
    } else if (r.kind == sim::TraceKind::kGuestWake) {
      ch.wake_hint[r.b] = r.a;  // a = task, b = target global vCPU
    } else {
      replay.step(r, ch);
    }
  }
  // Windows still open when the trace ends count up to meta.end.
  replay.finish(meta.end, ch);
  AttributionResult res = std::move(ch.res);
  res.head_truncated_at = retained_head(records, meta);

  // Labels: "vm/taskname" when meta.tasks knows the task, else "vm/task<id>".
  for (auto& [key, b] : ch.buckets) {
    b.vm = key.first;
    b.task = key.second;
    std::string name;
    for (const auto& t : meta.tasks) {
      if (t.vm == b.vm && t.id == b.task) {
        name = t.name;
        break;
      }
    }
    if (name.empty()) name = "task" + std::to_string(b.task);
    b.label = b.vm + "/" + name;
    res.tasks.push_back(b);
  }
  std::sort(res.tasks.begin(), res.tasks.end(),
            [](const TaskCharge& x, const TaskCharge& y) {
              if (x.total != y.total) return x.total > y.total;
              if (x.vm != y.vm) return x.vm < y.vm;
              return x.task < y.task;
            });
  return res;
}

}  // namespace irs::obs
