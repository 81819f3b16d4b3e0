#include "metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (p <= 0) return v.front();
  if (p >= 100) return v.back();
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

int SpanLog::begin(const char* name, std::int64_t req, std::int64_t t) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      Span{name, t, t, open_.empty() ? -1 : open_.back(), req});
  open_.push_back(id);
  return id;
}

void SpanLog::end(int id, std::int64_t t) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("SpanLog::end: spans must close innermost first");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Length of the union of the child intervals, clipped to the parent.
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::string spans_chrome_json(const std::vector<Span>& spans) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  char buf[96];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) os << ',';
    os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1";
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << buf << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"req\":" << s.req << "}}";
  }
  os << "]}\n";
  return os.str();
}

bool parse_vm_hwm_kib(std::string_view status, std::uint64_t* kib) {
  constexpr std::string_view kKey = "VmHWM:";
  std::size_t pos = 0;
  while (pos < status.size()) {
    std::size_t eol = status.find('\n', pos);
    if (eol == std::string_view::npos) eol = status.size();
    const std::string_view line = status.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.substr(0, kKey.size()) != kKey) continue;
    std::size_t i = kKey.size();
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    const std::size_t digits_at = i;
    std::uint64_t v = 0;
    for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
      v = v * 10 + static_cast<std::uint64_t>(line[i] - '0');
    }
    if (i == digits_at || line.substr(i) != " kB") return false;
    *kib = v;
    return true;
  }
  return false;
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::stringstream ss;
  ss << f.rdbuf();
  std::uint64_t kib = 0;
  if (!parse_vm_hwm_kib(ss.str(), &kib)) {
    throw std::runtime_error("no VmHWM in /proc/self/status");
  }
  return static_cast<double>(kib) / 1024.0;
}

}  // namespace perfbench
