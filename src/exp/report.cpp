#include "src/exp/report.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "src/obs/json.h"

namespace irs::exp {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      os << cell;
      for (std::size_t pad = cell.size(); pad < widths[c] + 2; ++pad) {
        os << ' ';
      }
    }
    os << '\n';
  };
  print_row(headers_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

void Table::print_csv(std::ostream& os) const {
  auto put_cell = [&](const std::string& cell) {
    if (cell.find_first_of(",\"\n") == std::string::npos) {
      os << cell;
      return;
    }
    os << '"';
    for (char ch : cell) {
      if (ch == '"') os << '"';
      os << ch;
    }
    os << '"';
  };
  auto put_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      if (c > 0) os << ',';
      put_cell(c < row.size() ? row[c] : "");
    }
    os << '\n';
  };
  put_row(headers_);
  for (const auto& row : rows_) put_row(row);
}

std::string fmt_pct(double pct) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", pct);
  return buf;
}

std::string fmt_f(double v, int prec) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

std::string fmt_ms(sim::Duration d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fms", sim::to_ms(d));
  return buf;
}

std::string fmt_us(sim::Duration d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1fus", sim::to_us(d));
  return buf;
}

void banner(std::ostream& os, const std::string& title) {
  os << "\n=== " << title << " ===\n";
}

namespace {

void write_result(obs::JsonWriter& w, const RunResult& r) {
  w.begin_object();
  w.field("finished", r.finished);
  w.field("fg_makespan_ns", static_cast<std::int64_t>(r.fg_makespan));
  w.field("fg_util_vs_fair", r.fg_util_vs_fair);
  w.field("fg_efficiency", r.fg_efficiency);
  w.field("bg_progress_rate", r.bg_progress_rate);
  w.field("throughput", r.throughput);
  w.field("lat_mean_ns", static_cast<std::int64_t>(r.lat_mean));
  w.field("lat_p99_ns", static_cast<std::int64_t>(r.lat_p99));
  w.field("lat_p999_ns", static_cast<std::int64_t>(r.lat_p999));
  w.field("lhp", r.lhp);
  w.field("lwp", r.lwp);
  w.field("irs_migrations", r.irs_migrations);
  w.field("sa_sent", r.sa_sent);
  w.field("sa_acked", r.sa_acked);
  w.field("sa_delay_avg_ns", static_cast<std::int64_t>(r.sa_delay_avg));
  w.field("sampler_digest", r.sampler_digest);
  w.field("trace_dropped", r.trace_dropped);
  w.field("trace_total_recorded", r.trace_total_recorded);
  for_each_block([&](const char* key, const char* digest_key, auto block,
                     auto digest) {
    w.field(digest_key, r.*digest);
    if (!(r.*block).empty()) {
      w.key(key);
      write_block(w, r.*block);
    }
  });
  w.end_object();
}

/// Field-lookup helpers shared by the RunResult parser: fetch `key` from
/// `v`, coerce into *out, and record a deterministic error otherwise.
template <typename T>
bool read_field(const obs::JsonValue& v, const char* key, T* out,
                std::string* err) {
  const obs::JsonValue* f = v.find(key);
  if (f == nullptr) {
    if (err) *err = std::string("missing field '") + key + "'";
    return false;
  }
  if (!f->get(out)) {
    if (err) *err = std::string("bad type for field '") + key + "'";
    return false;
  }
  return true;
}

bool read_duration(const obs::JsonValue& v, const char* key, sim::Duration* out,
                   std::string* err) {
  std::int64_t ns = 0;
  if (!read_field(v, key, &ns, err)) return false;
  *out = static_cast<sim::Duration>(ns);
  return true;
}

}  // namespace

std::string result_json(const RunResult& r) {
  obs::JsonWriter w(obs::JsonWriter::Doubles::kRoundTrip);
  write_result(w, r);
  return w.str();
}

bool result_from_value(const obs::JsonValue& v, RunResult* r,
                       std::string* err) {
  if (!v.is_object()) {
    if (err) *err = "result is not a JSON object";
    return false;
  }
  RunResult out;
  if (!read_field(v, "finished", &out.finished, err)) return false;
  if (!read_duration(v, "fg_makespan_ns", &out.fg_makespan, err)) return false;
  if (!read_field(v, "fg_util_vs_fair", &out.fg_util_vs_fair, err)) {
    return false;
  }
  if (!read_field(v, "fg_efficiency", &out.fg_efficiency, err)) return false;
  if (!read_field(v, "bg_progress_rate", &out.bg_progress_rate, err)) {
    return false;
  }
  if (!read_field(v, "throughput", &out.throughput, err)) return false;
  if (!read_duration(v, "lat_mean_ns", &out.lat_mean, err)) return false;
  if (!read_duration(v, "lat_p99_ns", &out.lat_p99, err)) return false;
  if (!read_duration(v, "lat_p999_ns", &out.lat_p999, err)) return false;
  if (!read_field(v, "lhp", &out.lhp, err)) return false;
  if (!read_field(v, "lwp", &out.lwp, err)) return false;
  if (!read_field(v, "irs_migrations", &out.irs_migrations, err)) return false;
  if (!read_field(v, "sa_sent", &out.sa_sent, err)) return false;
  if (!read_field(v, "sa_acked", &out.sa_acked, err)) return false;
  if (!read_duration(v, "sa_delay_avg_ns", &out.sa_delay_avg, err)) {
    return false;
  }
  if (!read_field(v, "sampler_digest", &out.sampler_digest, err)) return false;
  if (!read_field(v, "trace_dropped", &out.trace_dropped, err)) return false;
  if (!read_field(v, "trace_total_recorded", &out.trace_total_recorded, err)) {
    return false;
  }
  bool ok = true;
  for_each_block([&](const char* key, const char* digest_key, auto block,
                     auto digest) {
    if (!ok) return;
    ok = read_field(v, digest_key, &(out.*digest), err);
    // result_json omits an empty block; a present one must parse.
    const obs::JsonValue* b = v.find(key);
    if (ok && b != nullptr) ok = read_block(*b, &(out.*block), err);
  });
  if (!ok) return false;
  *r = out;
  return true;
}

bool result_from_json(const std::string& json, RunResult* r,
                      std::string* err) {
  obs::JsonReader reader;
  obs::JsonValue v;
  if (!reader.parse(json, &v)) {
    if (err) *err = reader.error();
    return false;
  }
  return result_from_value(v, r, err);
}

SweepConsumer ndjson_consumer(std::ostream& out) {
  return [&out](std::size_t /*i*/, const RunResult& r) {
    out << result_json(r) << '\n';
    out.flush();
  };
}

void print_attribution(std::ostream& os, const obs::AttributionResult& a) {
  if (a.head_truncated_at >= 0) {
    os << "note: trace head truncated at t=" << fmt_ms(a.head_truncated_at)
       << " — windows opened before that are not charged\n";
  }
  Table t({"task", "steal", "lhp", "lwp", "windows", "locks"});
  for (const obs::TaskCharge& c : a.tasks) {
    std::string locks;
    for (const auto& [lock, d] : c.by_lock) {
      if (!locks.empty()) locks += ", ";
      locks += lock + "=" + fmt_ms(d);
    }
    t.add_row({c.label, fmt_ms(c.total), fmt_ms(c.lhp), fmt_ms(c.lwp),
               std::to_string(c.windows), locks});
  }
  t.print(os);
  os << "total steal " << fmt_ms(a.total_steal) << ", charged "
     << fmt_ms(a.charged) << " (" << fmt_f(a.coverage() * 100.0, 1)
     << "%), uncharged " << fmt_ms(a.uncharged) << "\n";
}

std::string attribution_json(const obs::AttributionResult& a) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("total_steal_ns", static_cast<std::int64_t>(a.total_steal));
  w.field("charged_ns", static_cast<std::int64_t>(a.charged));
  w.field("uncharged_ns", static_cast<std::int64_t>(a.uncharged));
  w.field("coverage", a.coverage());
  w.field("head_truncated_at_ns",
          static_cast<std::int64_t>(a.head_truncated_at));
  w.key("tasks");
  w.begin_array();
  for (const obs::TaskCharge& c : a.tasks) {
    w.begin_object();
    w.field("vm", c.vm);
    w.field("task", c.task);
    w.field("label", c.label);
    w.field("steal_ns", static_cast<std::int64_t>(c.total));
    w.field("lhp_ns", static_cast<std::int64_t>(c.lhp));
    w.field("lwp_ns", static_cast<std::int64_t>(c.lwp));
    w.field("windows", c.windows);
    w.key("by_lock");
    w.begin_object();
    for (const auto& [lock, d] : c.by_lock) {
      w.field(lock.c_str(), static_cast<std::int64_t>(d));
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace irs::exp
