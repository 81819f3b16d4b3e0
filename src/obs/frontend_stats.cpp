#include "src/obs/frontend_stats.h"

#include <algorithm>

#include "src/obs/fnv.h"

namespace irs::obs {

std::uint64_t FrontendResult::digest() const {
  if (empty()) return 0;
  std::uint64_t h = kFnvOffset;
  fnv(h, arrivals);
  fnv(h, accepted);
  fnv(h, completed);
  fnv(h, tail_dropped);
  fnv(h, admit_rejected);
  fnv(h, shed);
  fnv(h, in_flight);
  fnv(h, conn_setups);
  fnv(h, keepalive_reuses);
  fnv(h, max_queue_depth);
  fnv(h, static_cast<std::uint64_t>(queue_wait_total));
  fnv(h, static_cast<std::uint64_t>(queue_wait_max));
  return h;
}

void fold_frontend(FrontendResult& acc, const FrontendResult& r) {
  if (r.empty()) return;
  acc.arrivals += r.arrivals;
  acc.accepted += r.accepted;
  acc.completed += r.completed;
  acc.tail_dropped += r.tail_dropped;
  acc.admit_rejected += r.admit_rejected;
  acc.shed += r.shed;
  acc.in_flight += r.in_flight;
  acc.conn_setups += r.conn_setups;
  acc.keepalive_reuses += r.keepalive_reuses;
  acc.max_queue_depth = std::max(acc.max_queue_depth, r.max_queue_depth);
  acc.queue_wait_total += r.queue_wait_total;
  acc.queue_wait_max = std::max(acc.queue_wait_max, r.queue_wait_max);
}

void frontend_json(JsonWriter& w, const FrontendResult& f) {
  w.begin_object();
  w.field("arrivals", f.arrivals);
  w.field("accepted", f.accepted);
  w.field("completed", f.completed);
  w.field("tail_dropped", f.tail_dropped);
  w.field("admit_rejected", f.admit_rejected);
  w.field("shed", f.shed);
  w.field("in_flight", f.in_flight);
  w.field("conn_setups", f.conn_setups);
  w.field("keepalive_reuses", f.keepalive_reuses);
  w.field("max_queue_depth", f.max_queue_depth);
  w.field("queue_wait_total_ns",
          static_cast<std::int64_t>(f.queue_wait_total));
  w.field("queue_wait_max_ns", static_cast<std::int64_t>(f.queue_wait_max));
  w.end_object();
}

namespace {

bool fe_err(std::string* err, const std::string& msg) {
  if (err != nullptr) *err = msg;
  return false;
}

bool read_u64(const JsonValue& v, const char* key, std::uint64_t* out,
              std::string* err) {
  const JsonValue* f = v.find(key);
  if (f == nullptr || !f->get(out)) {
    return fe_err(err, std::string("frontend: missing or bad '") + key + "'");
  }
  return true;
}

bool read_dur(const JsonValue& v, const char* key, sim::Duration* out,
              std::string* err) {
  std::int64_t ns = 0;
  const JsonValue* f = v.find(key);
  if (f == nullptr || !f->get(&ns)) {
    return fe_err(err, std::string("frontend: missing or bad '") + key + "'");
  }
  *out = ns;
  return true;
}

}  // namespace

bool frontend_from_value(const JsonValue& v, FrontendResult* out,
                         std::string* err) {
  if (!v.is_object()) return fe_err(err, "frontend is not a JSON object");
  FrontendResult f;
  if (!read_u64(v, "arrivals", &f.arrivals, err)) return false;
  if (!read_u64(v, "accepted", &f.accepted, err)) return false;
  if (!read_u64(v, "completed", &f.completed, err)) return false;
  if (!read_u64(v, "tail_dropped", &f.tail_dropped, err)) return false;
  if (!read_u64(v, "admit_rejected", &f.admit_rejected, err)) return false;
  if (!read_u64(v, "shed", &f.shed, err)) return false;
  if (!read_u64(v, "in_flight", &f.in_flight, err)) return false;
  if (!read_u64(v, "conn_setups", &f.conn_setups, err)) return false;
  if (!read_u64(v, "keepalive_reuses", &f.keepalive_reuses, err)) {
    return false;
  }
  if (!read_u64(v, "max_queue_depth", &f.max_queue_depth, err)) return false;
  if (!read_dur(v, "queue_wait_total_ns", &f.queue_wait_total, err)) {
    return false;
  }
  if (!read_dur(v, "queue_wait_max_ns", &f.queue_wait_max, err)) return false;
  *out = f;
  return true;
}

}  // namespace irs::obs
