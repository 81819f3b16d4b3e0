#include "src/exp/report.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <utility>

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

std::string result_json(const RunResult& r) {
  obs::JsonWriter w(obs::JsonWriter::Doubles::kRoundTrip);
  w.begin_object();
  obs::write_fields(w, r);
  for_each_block([&](const char* key, const char* digest_key, auto block,
                     auto digest) {
    w.field(digest_key, r.*digest);
    if (!(r.*block).empty()) {
      w.key(key);
      obs::write_block(w, r.*block);
    }
  });
  w.end_object();
  return w.str();
}

bool result_from_value(const obs::JsonValue& v, RunResult* r,
                       std::string* err) {
  const std::string what = "result";
  RunResult out;
  bool ok = obs::read_object(v, what, &out, err);
  for_each_block([&](const char* key, const char* digest_key, auto block,
                     auto digest) {
    if (!ok) return;
    ok = obs::read_field(v, digest_key, what, &(out.*digest), err);
    // result_json omits an empty block; a present one must parse, and
    // every digest must be its block's (0 for an absent one).
    const obs::JsonValue* b = v.find(key);
    if (ok && b != nullptr) ok = obs::read_block(*b, &(out.*block), err);
    if (ok && out.*digest != (out.*block).digest()) {
      ok = obs::fail(err, what + ": '" + digest_key +
                              "' is not the digest of its block");
    }
  });
  if (!ok) return false;
  *r = std::move(out);
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

}  // namespace irs::exp
