#include "src/sim/trace.h"

#include <sstream>

namespace irs::sim {

const char* trace_kind_name(TraceKind k) {
  switch (k) {
    case TraceKind::kHvSchedule: return "hv.schedule";
    case TraceKind::kHvPreempt: return "hv.preempt";
    case TraceKind::kHvBlock: return "hv.block";
    case TraceKind::kHvWake: return "hv.wake";
    case TraceKind::kSaSend: return "sa.send";
    case TraceKind::kSaAck: return "sa.ack";
    case TraceKind::kGuestSwitch: return "guest.switch";
    case TraceKind::kGuestWake: return "guest.wake";
    case TraceKind::kMigrate: return "guest.migrate";
    case TraceKind::kLhp: return "sync.lhp";
    case TraceKind::kLwp: return "sync.lwp";
    case TraceKind::kPleExit: return "hv.ple";
    case TraceKind::kCoStop: return "hv.co-stop";
    case TraceKind::kEngineStop: return "engine.stop";
    case TraceKind::kQueueGeometry: return "engine.geometry";
    case TraceKind::kReqBegin: return "req.begin";
    case TraceKind::kReqEnd: return "req.end";
    case TraceKind::kUser: return "user";
  }
  return "?";
}

void Trace::set_capacity(std::size_t capacity) {
  capacity_ = capacity;
  ring_.clear();
  ring_.reserve(capacity);
  head_ = 0;
  dropped_ = 0;
  total_ = 0;
}

TraceView Trace::view() const {
  // head_ stays 0 until the ring wraps; after that it is the oldest slot.
  const std::span<const TraceRecord> all(ring_);
  return {all.subspan(head_), all.first(head_)};
}

std::vector<TraceRecord> Trace::snapshot() const {
  const TraceView v = view();
  std::vector<TraceRecord> out;
  out.reserve(v.size());
  out.insert(out.end(), v.older.begin(), v.older.end());
  out.insert(out.end(), v.newer.begin(), v.newer.end());
  return out;
}

std::size_t Trace::count(TraceKind kind) const {
  std::size_t n = 0;
  for (const auto& r : ring_) {
    if (r.kind == kind) ++n;
  }
  return n;
}

std::string Trace::dump() const {
  std::ostringstream os;
  if (dropped_ > 0) {
    os << "[trace truncated: " << dropped_ << " of " << total_
       << " records dropped]\n";
  }
  for (const auto& r : snapshot()) {
    os << to_ms(r.when) << "ms " << trace_kind_name(r.kind) << " a=" << r.a
       << " b=" << r.b;
    if (!r.note.empty()) os << " (" << r.note.c_str() << ")";
    os << '\n';
  }
  return os.str();
}

void Trace::clear() {
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
  total_ = 0;
}

}  // namespace irs::sim
