#include "src/obs/chrome_trace.h"

#include <map>
#include <set>

#include "src/obs/forensics.h"
#include "src/obs/json.h"

namespace irs::obs {

namespace {

constexpr int kPidPcpus = 0;
constexpr int kPidVcpus = 1;
constexpr int kPidGuest = 2;
constexpr int kPidCounters = 3;
constexpr int kPidRequests = 4;

std::string vcpu_label(const TraceMeta& meta, int vcpu) {
  for (const auto& v : meta.vcpus) {
    if (v.id == vcpu) {
      return v.vm + "/vcpu" + std::to_string(v.idx);
    }
  }
  return "vcpu" + std::to_string(vcpu);
}

/// "vm/taskname" for a task seen on `vcpu` (task ids are VM-local).
std::string task_label(const TraceMeta& meta, int vcpu, std::int32_t task) {
  const std::string* vm = nullptr;
  for (const auto& v : meta.vcpus) {
    if (v.id == vcpu) {
      vm = &v.vm;
      break;
    }
  }
  if (vm == nullptr) return "task" + std::to_string(task);
  for (const auto& t : meta.tasks) {
    if (t.id == task && t.vm == *vm) return *vm + "/" + t.name;
  }
  return *vm + "/task" + std::to_string(task);
}

/// Lane label for a request-emitting task. Request records carry no VM, but
/// only the serving workload emits them, so the first id match is the one.
std::string req_task_label(const TraceMeta& meta, std::int32_t task) {
  for (const auto& t : meta.tasks) {
    if (t.id == task) return t.vm + "/" + t.name;
  }
  return "task" + std::to_string(task);
}

void meta_event(JsonWriter& w, const char* name, int pid, int tid,
                const std::string& arg) {
  w.begin_object()
      .field("name", name)
      .field("ph", "M")
      .field("pid", pid)
      .field("tid", tid)
      .key("args")
      .begin_object()
      .field("name", arg)
      .end_object()
      .end_object();
}

void span_event(JsonWriter& w, const std::string& name, int pid, int tid,
                sim::Time start, sim::Time end) {
  w.begin_object()
      .field("name", name)
      .field("ph", "X")
      .field("pid", pid)
      .field("tid", tid)
      .field("ts", sim::to_us(start))
      .field("dur", sim::to_us(end - start))
      .end_object();
}

void flow_event(JsonWriter& w, const char* ph, const std::string& name,
                const char* cat, std::uint64_t id, int pid, int tid,
                sim::Time when, bool binding_next) {
  w.begin_object()
      .field("name", name)
      .field("cat", cat)
      .field("ph", ph)
      .field("id", id)
      .field("pid", pid)
      .field("tid", tid)
      .field("ts", sim::to_us(when));
  if (binding_next) w.field("bp", "e");
  w.end_object();
}

void counter_event(JsonWriter& w, const std::string& name, sim::Time when,
                   std::int64_t value) {
  w.begin_object()
      .field("name", name)
      .field("ph", "C")
      .field("pid", kPidCounters)
      .field("ts", sim::to_us(when))
      .key("args")
      .begin_object()
      .field("value", value)
      .end_object()
      .end_object();
}

void counter_event_f(JsonWriter& w, const std::string& name, sim::Time when,
                     double value) {
  w.begin_object()
      .field("name", name)
      .field("ph", "C")
      .field("pid", kPidCounters)
      .field("ts", sim::to_us(when))
      .key("args")
      .begin_object()
      .field("value", value)
      .end_object()
      .end_object();
}

void instant_event(JsonWriter& w, const std::string& name, int pid, int tid,
                   sim::Time when, const char* scope, std::int32_t arg_task) {
  w.begin_object()
      .field("name", name)
      .field("ph", "i")
      .field("s", scope)
      .field("pid", pid)
      .field("tid", tid)
      .field("ts", sim::to_us(when));
  if (arg_task >= 0) {
    w.key("args").begin_object().field("task", arg_task).end_object();
  }
  w.end_object();
}

}  // namespace

sim::Time retained_head(std::span<const sim::TraceRecord> records,
                        const TraceMeta& meta) {
  if (meta.dropped == 0) return -1;
  for (const sim::TraceRecord& r : records) {
    if (r.kind != sim::TraceKind::kReqBegin &&
        r.kind != sim::TraceKind::kReqEnd) {
      return r.when;
    }
  }
  return meta.end;
}

std::string chrome_trace_json(const std::vector<sim::TraceRecord>& records,
                              const TraceMeta& meta) {
  return chrome_trace_json(records, meta, ChromeTraceOptions{});
}

std::string chrome_trace_json(const std::vector<sim::TraceRecord>& records,
                              const TraceMeta& meta,
                              const ChromeTraceOptions& opt) {
  JsonWriter w;
  w.begin_object()
      .field("displayTimeUnit", "ms")
      .field("otherData", meta.title)  // free-form run label
      .key("traceEvents")
      .begin_array();

  meta_event(w, "process_name", kPidPcpus, 0, "pCPUs");
  meta_event(w, "process_name", kPidVcpus, 0, "vCPUs");
  for (int p = 0; p < meta.n_pcpus; ++p) {
    meta_event(w, "thread_name", kPidPcpus, p, "pCPU " + std::to_string(p));
  }
  for (const auto& v : meta.vcpus) {
    meta_event(w, "thread_name", kPidVcpus, v.id, vcpu_label(meta, v.id));
  }
  if (opt.guest_lanes) {
    meta_event(w, "process_name", kPidGuest, 0, "guest tasks");
    for (const auto& v : meta.vcpus) {
      meta_event(w, "thread_name", kPidGuest, v.id, vcpu_label(meta, v.id));
    }
  }
  if (opt.request_lanes) {
    meta_event(w, "process_name", kPidRequests, 0, "requests");
  }
  if ((opt.counters != nullptr && !opt.counters->empty()) ||
      (opt.slo != nullptr && !opt.slo->empty()) ||
      (opt.forensics != nullptr && !opt.forensics->empty())) {
    meta_event(w, "process_name", kPidCounters, 0, "counters");
  }

  if (meta.dropped > 0) {
    // Place the marker where the retained portion begins: everything before
    // this timestamp was dropped when the ring wrapped.
    const sim::Time head = retained_head(records, meta);
    w.begin_object()
        .field("name", "trace truncated")
        .field("ph", "i")
        .field("s", "g")
        .field("pid", kPidPcpus)
        .field("tid", 0)
        .field("ts", sim::to_us(head))
        .key("args")
        .begin_object()
        .field("head_us", sim::to_us(head))
        .field("dropped", meta.dropped)
        .field("total_recorded", meta.total_recorded)
        .end_object()
        .end_object();
  }

  // vCPU id -> (pcpu, on-cpu-since) for the currently open span.
  std::map<int, std::pair<int, sim::Time>> on_cpu;
  // vCPU id -> flow id of an SA send still awaiting its ack.
  std::map<int, std::uint64_t> pending_sa;
  // Guest lanes: vCPU id -> (task, on-vcpu-since) for the open task span.
  std::map<int, std::pair<std::int32_t, sim::Time>> on_vcpu;
  // Request lanes: req id -> (task, begin time) for spans still in flight,
  // plus the set of tasks that already have a lane label.
  std::map<std::int32_t, std::pair<std::int32_t, sim::Time>> open_req;
  std::set<std::int32_t> req_lanes_named;
  std::uint64_t next_flow_id = 1;

  auto name_req_lane = [&](std::int32_t task) {
    if (!req_lanes_named.insert(task).second) return;
    meta_event(w, "thread_name", kPidRequests, task,
               req_task_label(meta, task));
  };

  auto close_guest_span = [&](int vcpu, std::int32_t task, sim::Time start,
                              sim::Time end) {
    span_event(w, task_label(meta, vcpu, task), kPidGuest, vcpu, start, end);
  };

  auto close_span = [&](int vcpu, int pcpu, sim::Time start, sim::Time end) {
    const std::string label = vcpu_label(meta, vcpu);
    span_event(w, label, kPidPcpus, pcpu, start, end);
    span_event(w, "on pCPU " + std::to_string(pcpu), kPidVcpus, vcpu, start,
               end);
  };

  for (const auto& r : records) {
    switch (r.kind) {
      case sim::TraceKind::kHvSchedule: {
        // A reschedule of an already-running vCPU closes its prior span.
        auto it = on_cpu.find(r.a);
        if (it != on_cpu.end()) {
          close_span(r.a, it->second.first, it->second.second, r.when);
        }
        on_cpu[r.a] = {r.b, r.when};
        break;
      }
      case sim::TraceKind::kHvPreempt:
      case sim::TraceKind::kHvBlock: {
        auto it = on_cpu.find(r.a);
        if (it != on_cpu.end()) {
          close_span(r.a, it->second.first, it->second.second, r.when);
          on_cpu.erase(it);
        }
        break;
      }
      case sim::TraceKind::kSaSend: {
        const std::uint64_t id = next_flow_id++;
        pending_sa[r.a] = id;
        flow_event(w, "s", "sa", "sa", id, kPidVcpus, r.a, r.when,
                   /*binding_next=*/false);
        break;
      }
      case sim::TraceKind::kSaAck: {
        auto it = pending_sa.find(r.a);
        if (it != pending_sa.end()) {
          flow_event(w, "f", "sa", "sa", it->second, kPidVcpus, r.a, r.when,
                     /*binding_next=*/true);
          pending_sa.erase(it);
        }
        break;
      }
      case sim::TraceKind::kLhp:
        instant_event(w, "LHP", kPidVcpus, r.a, r.when, "t", r.c);
        break;
      case sim::TraceKind::kLwp:
        instant_event(w, "LWP", kPidVcpus, r.a, r.when, "t", r.c);
        break;
      case sim::TraceKind::kGuestSwitch: {
        if (!opt.guest_lanes) break;
        auto it = on_vcpu.find(r.a);
        if (it != on_vcpu.end()) {
          close_guest_span(r.a, it->second.first, it->second.second, r.when);
          on_vcpu.erase(it);
        }
        if (r.b >= 0) on_vcpu[r.a] = {r.b, r.when};
        break;
      }
      case sim::TraceKind::kReqBegin: {
        if (!opt.request_lanes) break;
        // a = request id, b = SLO class, c = serving task.
        name_req_lane(r.c);
        open_req[r.a] = {r.c, r.when};
        break;
      }
      case sim::TraceKind::kReqEnd: {
        if (!opt.request_lanes) break;
        auto it = open_req.find(r.a);
        if (it == open_req.end()) break;  // begin dropped by ring wrap
        span_event(w, "req " + std::to_string(r.a), kPidRequests,
                   it->second.first, it->second.second, r.when);
        open_req.erase(it);
        break;
      }
      case sim::TraceKind::kMigrate: {
        if (!opt.guest_lanes) break;
        // a = task, b = destination vCPU, c = source vCPU.
        const std::uint64_t id = next_flow_id++;
        const std::string label = task_label(meta, r.b, r.a);
        flow_event(w, "s", label, "migrate", id, kPidGuest, r.c, r.when,
                   /*binding_next=*/false);
        flow_event(w, "f", label, "migrate", id, kPidGuest, r.b, r.when,
                   /*binding_next=*/true);
        break;
      }
      default:
        break;
    }
  }

  // Close spans still open at the end of the trace (std::map iteration
  // gives deterministic vCPU-id order).
  for (const auto& [vcpu, span] : on_cpu) {
    close_span(vcpu, span.first, span.second, meta.end);
  }
  for (const auto& [vcpu, span] : on_vcpu) {
    close_guest_span(vcpu, span.first, span.second, meta.end);
  }
  for (const auto& [req, span] : open_req) {
    span_event(w, "req " + std::to_string(req) + " (open)", kPidRequests,
               span.first, span.second, meta.end);
  }

  if (opt.counters != nullptr) {
    for (const auto& s : *opt.counters) {
      for (const auto& smp : s.samples) {
        counter_event(w, s.name, smp.when, smp.value);
      }
    }
  }

  if (opt.slo != nullptr && !opt.slo->empty()) {
    for (const auto& c : opt.slo->classes) {
      for (const SloWindow& win : c.windows) {
        // Step each track at the window's start time; Perfetto holds the
        // value until the next sample, so gaps (empty windows) read as the
        // previous window's level — acceptable for a step series.
        const sim::Time at = win.index * opt.slo->window;
        counter_event_f(w, "slo:" + c.name + ":p50", at, sim::to_ms(win.p50));
        counter_event_f(w, "slo:" + c.name + ":p99", at, sim::to_ms(win.p99));
        counter_event_f(w, "slo:" + c.name + ":p999", at,
                        sim::to_ms(win.p999));
        counter_event_f(w, "slo:" + c.name + ":burn", at,
                        burn_rate(win, c.spec));
      }
    }
  }

  if (opt.forensics != nullptr && !opt.forensics->empty()) {
    // One step track per (class, cause): the ms of latency charged to that
    // cause inside each SLO-violating window. Every cause is stepped at
    // every violating window (including zeros) so the hold-until-next-sample
    // rendering never carries a stale value into a later window.
    for (const auto& c : opt.forensics->classes) {
      for (const ForensicsWindow& win : c.windows) {
        const sim::Time at = win.index * opt.forensics->window;
        for (int i = 0; i < kNumCauses; ++i) {
          counter_event_f(
              w, "why:" + c.name + ":" + cause_name(static_cast<Cause>(i)),
              at, sim::to_ms(win.causes[i]));
        }
      }
    }
  }

  w.end_array().end_object();
  return w.str();
}

}  // namespace irs::obs
