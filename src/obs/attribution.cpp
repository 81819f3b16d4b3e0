#include "src/obs/attribution.h"

#include <algorithm>

namespace irs::obs {

namespace {

struct PendingClass {
  int kind = 0;  // 0 = plain, 1 = LHP, 2 = LWP
  std::string lock;
  std::int32_t task = -1;
};

struct Window {
  sim::Time start = 0;
  int kind = 0;
  std::string lock;
  std::int32_t task = -1;
  std::string vm;
  bool from_wake = false;
};

}  // namespace

AttributionResult attribute(const std::vector<sim::TraceRecord>& records,
                            const TraceMeta& meta) {
  AttributionResult res;
  res.head_truncated_at = retained_head(records, meta);

  std::map<int, std::string> vcpu_vm;
  for (const auto& v : meta.vcpus) vcpu_vm[v.id] = v.vm;

  std::map<int, std::int32_t> lane;  // global vCPU -> on-CPU task (-1 idle)
  // global vCPU -> task whose guest-side wake last targeted it. Covers wake
  // windows on idle vCPUs: the kGuestWake precedes the kHvWake (same
  // timestamp, recorded first), but the task only reaches the lane when the
  // vCPU next runs — so the lane alone would leave the wait uncharged.
  std::map<int, std::int32_t> wake_hint;
  std::map<int, PendingClass> pending;
  std::map<int, Window> open;
  // (vm, task) -> charge bucket.
  std::map<std::pair<std::string, std::int32_t>, TaskCharge> buckets;

  auto vm_of = [&](int vcpu) -> std::string {
    auto it = vcpu_vm.find(vcpu);
    return it != vcpu_vm.end() ? it->second : std::string("?");
  };

  auto close_window = [&](int vcpu, Window& w, sim::Time end) {
    const sim::Duration dur = end - w.start;
    if (dur <= 0) return;
    if (w.task < 0 && w.from_wake) {
      // The guest-side wake may land after the hv-side kHvWake (boot-time
      // enqueues share the start timestamp), so re-check the hint on close.
      auto wh = wake_hint.find(vcpu);
      if (wh != wake_hint.end()) w.task = wh->second;
    }
    res.total_steal += dur;
    if (w.task < 0) {
      res.uncharged += dur;
      return;
    }
    res.charged += dur;
    TaskCharge& b = buckets[{w.vm, w.task}];
    b.vm = w.vm;
    b.task = w.task;
    b.total += dur;
    ++b.windows;
    if (w.kind == 1) b.lhp += dur;
    if (w.kind == 2) b.lwp += dur;
    if (w.kind != 0 && !w.lock.empty()) b.by_lock[w.lock] += dur;
    (void)vcpu;
  };

  auto open_window = [&](int vcpu, sim::Time when, const PendingClass& pc,
                         bool from_wake = false) {
    if (open.count(vcpu) != 0) return;  // keep the earlier opening
    Window w;
    w.start = when;
    w.kind = pc.kind;
    w.lock = pc.lock;
    auto it = lane.find(vcpu);
    w.task = pc.task >= 0 ? pc.task : (it != lane.end() ? it->second : -1);
    w.vm = vm_of(vcpu);
    w.from_wake = from_wake;
    open.emplace(vcpu, std::move(w));
  };

  for (const auto& r : records) {
    switch (r.kind) {
      case sim::TraceKind::kGuestSwitch:
        lane[r.a] = r.b;
        break;
      case sim::TraceKind::kGuestWake:
        wake_hint[r.b] = r.a;  // a = task, b = target global vCPU
        break;
      case sim::TraceKind::kLhp:
        pending[r.a] = PendingClass{1, r.note.c_str(), r.c};
        break;
      case sim::TraceKind::kLwp:
        pending[r.a] = PendingClass{2, r.note.c_str(), r.c};
        break;
      case sim::TraceKind::kHvPreempt: {
        // The classifying kLhp/kLwp (if any) was recorded just before this,
        // at the same timestamp.
        PendingClass pc;
        auto it = pending.find(r.a);
        if (it != pending.end()) {
          pc = it->second;
          pending.erase(it);
        }
        open_window(r.a, r.when, pc);
        break;
      }
      case sim::TraceKind::kHvWake: {
        // Runnable-wait half of steal time: the vCPU woke but has no pCPU
        // until the next kHvSchedule. Often zero-length (idle pCPU). When
        // the lane is idle, charge the task whose wake caused this.
        PendingClass pc;
        auto lt = lane.find(r.a);
        if (lt == lane.end() || lt->second < 0) {
          auto wh = wake_hint.find(r.a);
          if (wh != wake_hint.end()) pc.task = wh->second;
        }
        open_window(r.a, r.when, pc, /*from_wake=*/true);
        break;
      }
      case sim::TraceKind::kHvSchedule: {
        auto it = open.find(r.a);
        if (it != open.end()) {
          close_window(r.a, it->second, r.when);
          open.erase(it);
        }
        pending.erase(r.a);
        break;
      }
      case sim::TraceKind::kHvBlock: {
        // A blocked vCPU stopped competing: whatever window was open is not
        // steal (the guest went idle before getting a pCPU back).
        open.erase(r.a);
        pending.erase(r.a);
        break;
      }
      default:
        break;
    }
  }

  // Windows still open when the trace ends count up to meta.end.
  for (auto& [vcpu, w] : open) close_window(vcpu, w, meta.end);

  // Labels: "vm/taskname" when meta.tasks knows the task, else "vm/task<id>".
  for (auto& [key, b] : buckets) {
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
