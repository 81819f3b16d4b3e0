#include "src/obs/cluster_stats.h"

#include <algorithm>

#include "src/obs/fnv.h"

namespace irs::obs {

std::uint64_t ClusterResult::digest() const {
  if (empty()) return 0;
  std::uint64_t h = kFnvOffset;
  fnv(h, n_hosts);
  fnv(h, policy);
  fnv(h, vms);
  fnv(h, migratable);
  fnv(h, decisions);
  fnv(h, migrations);
  fnv(h, in_transit_end);
  fnv(h, static_cast<std::uint64_t>(downtime_total));
  fnv(h, hosts.size());
  for (const ClusterHostLedger& hl : hosts) {
    fnv(h, hl.placed);
    fnv(h, hl.migr_in);
    fnv(h, hl.migr_out);
    fnv(h, hl.active_end);
    fnv(h, hl.samples);
    fnv(h, hl.lhp);
    fnv(h, hl.lwp);
    fnv(h, static_cast<std::uint64_t>(hl.steal));
  }
  return h;
}

void fold_cluster(ClusterResult& acc, const ClusterResult& r) {
  if (r.empty()) return;
  acc.n_hosts = std::max(acc.n_hosts, r.n_hosts);
  acc.policy = std::max(acc.policy, r.policy);
  acc.vms += r.vms;
  acc.migratable += r.migratable;
  acc.decisions += r.decisions;
  acc.migrations += r.migrations;
  acc.in_transit_end += r.in_transit_end;
  acc.downtime_total += r.downtime_total;
  if (acc.hosts.size() < r.hosts.size()) acc.hosts.resize(r.hosts.size());
  for (std::size_t i = 0; i < r.hosts.size(); ++i) {
    ClusterHostLedger& a = acc.hosts[i];
    const ClusterHostLedger& b = r.hosts[i];
    a.placed += b.placed;
    a.migr_in += b.migr_in;
    a.migr_out += b.migr_out;
    a.active_end += b.active_end;
    a.samples += b.samples;
    a.lhp += b.lhp;
    a.lwp += b.lwp;
    a.steal += b.steal;
  }
}

void cluster_json(JsonWriter& w, const ClusterResult& c) {
  w.begin_object();
  w.field("n_hosts", static_cast<std::uint64_t>(c.n_hosts));
  w.field("policy", static_cast<std::uint64_t>(c.policy));
  w.field("vms", c.vms);
  w.field("migratable", c.migratable);
  w.field("decisions", c.decisions);
  w.field("migrations", c.migrations);
  w.field("in_transit_end", c.in_transit_end);
  w.field("downtime_total_ns", static_cast<std::int64_t>(c.downtime_total));
  w.key("hosts");
  w.begin_array();
  for (const ClusterHostLedger& hl : c.hosts) {
    w.begin_array();
    w.value(hl.placed);
    w.value(hl.migr_in);
    w.value(hl.migr_out);
    w.value(hl.active_end);
    w.value(hl.samples);
    w.value(hl.lhp);
    w.value(hl.lwp);
    w.value(static_cast<std::int64_t>(hl.steal));
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

namespace {

bool cl_err(std::string* err, const std::string& msg) {
  if (err != nullptr) *err = msg;
  return false;
}

bool read_u64(const JsonValue& v, const char* key, std::uint64_t* out,
              std::string* err) {
  const JsonValue* f = v.find(key);
  if (f == nullptr || !f->get(out)) {
    return cl_err(err, std::string("cluster: missing or bad '") + key + "'");
  }
  return true;
}

bool read_dur(const JsonValue& v, const char* key, sim::Duration* out,
              std::string* err) {
  std::int64_t ns = 0;
  const JsonValue* f = v.find(key);
  if (f == nullptr || !f->get(&ns)) {
    return cl_err(err, std::string("cluster: missing or bad '") + key + "'");
  }
  *out = ns;
  return true;
}

}  // namespace

bool cluster_from_value(const JsonValue& v, ClusterResult* out,
                        std::string* err) {
  if (!v.is_object()) return cl_err(err, "cluster is not a JSON object");
  ClusterResult c;
  std::uint64_t u = 0;
  if (!read_u64(v, "n_hosts", &u, err)) return false;
  c.n_hosts = static_cast<std::uint32_t>(u);
  if (!read_u64(v, "policy", &u, err)) return false;
  c.policy = static_cast<std::uint32_t>(u);
  if (!read_u64(v, "vms", &c.vms, err)) return false;
  if (!read_u64(v, "migratable", &c.migratable, err)) return false;
  if (!read_u64(v, "decisions", &c.decisions, err)) return false;
  if (!read_u64(v, "migrations", &c.migrations, err)) return false;
  if (!read_u64(v, "in_transit_end", &c.in_transit_end, err)) return false;
  if (!read_dur(v, "downtime_total_ns", &c.downtime_total, err)) return false;
  const JsonValue* hosts = v.find("hosts");
  if (hosts == nullptr || !hosts->is_array()) {
    return cl_err(err, "cluster: missing or bad 'hosts'");
  }
  for (const JsonValue& hv : hosts->items) {
    if (!hv.is_array() || hv.items.size() != 8) {
      return cl_err(err, "cluster: host row is not an 8-element array");
    }
    ClusterHostLedger hl;
    std::int64_t steal_ns = 0;
    if (!hv.items[0].get(&hl.placed) || !hv.items[1].get(&hl.migr_in) ||
        !hv.items[2].get(&hl.migr_out) || !hv.items[3].get(&hl.active_end) ||
        !hv.items[4].get(&hl.samples) || !hv.items[5].get(&hl.lhp) ||
        !hv.items[6].get(&hl.lwp) || !hv.items[7].get(&steal_ns)) {
      return cl_err(err, "cluster: bad value in host row");
    }
    hl.steal = steal_ns;
    c.hosts.push_back(hl);
  }
  *out = c;
  return true;
}

}  // namespace irs::obs
