// Exporter tests: JsonWriter primitives, the stable RunResult JSON emitter,
// and the Chrome trace_event timeline writer — golden-checked byte-for-byte
// on a hand-built trace and structurally on a real (tiny) scenario run.
//
// Regenerate the golden file after an intentional format change with
//   IRS_REGEN_GOLDEN=1 ./irs_tests --gtest_filter=ObsExport.GoldenTinyTrace
#include "src/obs/chrome_trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/exp/report.h"
#include "src/exp/runner.h"
#include "src/obs/attribution.h"
#include "src/obs/forensics.h"
#include "src/obs/json.h"

namespace irs::obs {
namespace {

/// Minimal JSON well-formedness scan: brace/bracket balance outside string
/// literals, escape-aware. Catches the usual writer bugs (stray commas are
/// caught by the golden test; unbalanced containers by this).
bool balanced_json(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

int count_occurrences(const std::string& text, const std::string& needle) {
  int n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(ObsJson, WriterProducesCompactDeterministicOutput) {
  JsonWriter w;
  w.begin_object()
      .field("s", "hi")
      .field("i", 42)
      .field("d", 1.5)
      .field("b", true)
      .key("arr")
      .begin_array()
      .value(1)
      .value(2)
      .end_array()
      .key("nested")
      .begin_object()
      .end_object()
      .end_object();
  EXPECT_EQ(w.str(),
            "{\"s\":\"hi\",\"i\":42,\"d\":1.5,\"b\":true,"
            "\"arr\":[1,2],\"nested\":{}}");
}

TEST(ObsJson, EscapesPerRfc8259) {
  EXPECT_EQ(json_escape("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_escape("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(json_escape(std::string("nul\0byte", 8)), "\"nul\\u0000byte\"");
}

TEST(ObsJson, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array()
      .value(std::nan(""))
      .value(std::numeric_limits<double>::infinity())
      .end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

// ---------------------------------------------------------------------------
// RunResult JSON
// ---------------------------------------------------------------------------

TEST(ObsExport, ResultJsonHasStableShape) {
  exp::RunResult r;
  r.finished = true;
  r.fg_makespan = sim::milliseconds(25);
  r.fg_util_vs_fair = 1.25;
  r.lhp = 7;
  r.sa_sent = 3;
  const std::string j = exp::result_json(r);
  EXPECT_TRUE(balanced_json(j)) << j;
  EXPECT_NE(j.find("\"finished\":true"), std::string::npos) << j;
  EXPECT_NE(j.find("\"fg_makespan_ns\":25000000"), std::string::npos) << j;
  EXPECT_NE(j.find("\"fg_util_vs_fair\":1.25"), std::string::npos) << j;
  EXPECT_NE(j.find("\"lhp\":7"), std::string::npos) << j;
  EXPECT_NE(j.find("\"sa_sent\":3"), std::string::npos) << j;
  // Key order is part of the contract (diffs between reports stay minimal).
  EXPECT_LT(j.find("\"finished\""), j.find("\"fg_makespan_ns\""));
  EXPECT_LT(j.find("\"lhp\""), j.find("\"sa_delay_avg_ns\""));
}

// ---------------------------------------------------------------------------
// Chrome trace JSON
// ---------------------------------------------------------------------------

/// Hand-built two-vCPU trace exercising every event class the exporter
/// renders: spans (incl. reschedule-splits and end-of-trace close), an SA
/// send/ack flow, LHP/LWP instants, and the truncation marker.
std::vector<sim::TraceRecord> tiny_records() {
  using sim::TraceKind;
  std::vector<sim::TraceRecord> rs;
  auto add = [&](sim::Time when, TraceKind k, std::int32_t a, std::int32_t b,
                 const char* note = "", std::int32_t c = -1) {
    rs.push_back(sim::TraceRecord{when, k, a, b, c, note});
  };
  add(sim::milliseconds(1), TraceKind::kHvSchedule, 0, 0);
  add(sim::milliseconds(1), TraceKind::kHvSchedule, 1, 1);
  add(sim::milliseconds(2), TraceKind::kSaSend, 1, -1);
  add(sim::microseconds(2500), TraceKind::kLhp, 0, 0, "runq", 5);
  add(sim::milliseconds(3), TraceKind::kHvPreempt, 0, 0);
  add(sim::microseconds(3500), TraceKind::kSaAck, 1, -1);
  add(sim::milliseconds(4), TraceKind::kLwp, 1, 1, "flock", 6);
  add(sim::microseconds(4500), TraceKind::kHvSchedule, 2, 0, "steal");
  add(sim::milliseconds(5), TraceKind::kHvSchedule, 2, 0);  // resched split
  add(sim::milliseconds(6), TraceKind::kHvBlock, 2, 0);
  return rs;  // vCPU 1 stays on-CPU; closed at meta.end
}

/// tiny_records() interleaved with guest-lane events: task switches on both
/// fg vCPUs, an idle gap when vCPU 0 is preempted, and a migration.
std::vector<sim::TraceRecord> tiny_full_records() {
  using sim::TraceKind;
  std::vector<sim::TraceRecord> rs;
  auto add = [&](sim::Time when, TraceKind k, std::int32_t a, std::int32_t b,
                 const char* note = "", std::int32_t c = -1) {
    rs.push_back(sim::TraceRecord{when, k, a, b, c, note});
  };
  add(sim::milliseconds(1), TraceKind::kHvSchedule, 0, 0);
  add(sim::milliseconds(1), TraceKind::kHvSchedule, 1, 1);
  add(sim::milliseconds(1), TraceKind::kGuestSwitch, 0, 101);
  add(sim::milliseconds(1), TraceKind::kGuestSwitch, 1, 102);
  add(sim::milliseconds(2), TraceKind::kSaSend, 1, -1);
  add(sim::microseconds(2500), TraceKind::kLhp, 0, 0, "runq", 101);
  add(sim::milliseconds(3), TraceKind::kHvPreempt, 0, 0);
  add(sim::microseconds(3500), TraceKind::kSaAck, 1, -1);
  add(sim::microseconds(3500), TraceKind::kGuestSwitch, 1, -1, "sa-cs");
  add(sim::microseconds(3500), TraceKind::kMigrate, 101, 1, "", 0);
  add(sim::microseconds(3500), TraceKind::kGuestSwitch, 1, 101);
  add(sim::milliseconds(4), TraceKind::kLwp, 1, 1, "flock", 102);
  add(sim::microseconds(4500), TraceKind::kHvSchedule, 2, 0, "steal");
  add(sim::milliseconds(5), TraceKind::kHvSchedule, 2, 0);
  add(sim::milliseconds(6), TraceKind::kHvBlock, 2, 0);
  return rs;  // vCPU 1 and task 101's guest span close at meta.end
}

std::vector<SeriesData> tiny_series() {
  std::vector<SeriesData> out;
  out.push_back(SeriesData{
      "hv/lhp",
      {{sim::milliseconds(1), 0}, {sim::milliseconds(3), 1}},
      0});
  out.push_back(SeriesData{
      "hv/runnable_vcpus",
      {{sim::milliseconds(1), 0}, {sim::milliseconds(3), 1}},
      0});
  return out;
}

TraceMeta tiny_meta() {
  TraceMeta m;
  m.title = "tiny";
  m.n_pcpus = 2;
  m.vcpus = {{0, "fg", 0}, {1, "fg", 1}, {2, "bg0", 0}};
  m.start = 0;
  m.end = sim::milliseconds(10);
  m.dropped = 2;
  m.total_recorded = 12;
  return m;
}

TraceMeta tiny_full_meta() {
  TraceMeta m = tiny_meta();
  m.tasks = {{101, "fg", "worker0"}, {102, "fg", "worker1"}};
  return m;
}

TEST(ObsExport, GoldenTinyTrace) {
  const std::string json = chrome_trace_json(tiny_records(), tiny_meta());
  ASSERT_TRUE(balanced_json(json)) << json;

  const std::string path = std::string(IRS_GOLDEN_DIR) + "/tiny_trace.json";
  if (std::getenv("IRS_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    out << json;
    ASSERT_TRUE(out.good()) << "could not regenerate " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with IRS_REGEN_GOLDEN=1 to create)";
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(json, ss.str())
      << "exporter output drifted from the golden file; if intentional, "
         "regenerate with IRS_REGEN_GOLDEN=1";
}

TEST(ObsExport, GoldenTinyTraceFull) {
  // Guest lanes + counter tracks on top of the hv timeline, golden-checked
  // byte-for-byte like the plain variant.
  const auto series = tiny_series();
  ChromeTraceOptions opt;
  opt.guest_lanes = true;
  opt.counters = &series;
  const std::string json =
      chrome_trace_json(tiny_full_records(), tiny_full_meta(), opt);
  ASSERT_TRUE(balanced_json(json)) << json;

  const std::string path =
      std::string(IRS_GOLDEN_DIR) + "/tiny_trace_full.json";
  if (std::getenv("IRS_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    out << json;
    ASSERT_TRUE(out.good()) << "could not regenerate " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with IRS_REGEN_GOLDEN=1 to create)";
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(json, ss.str())
      << "exporter output drifted from the golden file; if intentional, "
         "regenerate with IRS_REGEN_GOLDEN=1";
}

TEST(ObsExport, TinyTraceFullStructure) {
  const auto series = tiny_series();
  ChromeTraceOptions opt;
  opt.guest_lanes = true;
  opt.counters = &series;
  const std::string json =
      chrome_trace_json(tiny_full_records(), tiny_full_meta(), opt);
  // Guest process with labelled task spans.
  EXPECT_NE(json.find("\"guest tasks\""), std::string::npos);
  EXPECT_NE(json.find("\"fg/worker0\""), std::string::npos);
  EXPECT_NE(json.find("\"fg/worker1\""), std::string::npos);
  // The migration renders as a flow pair in the "migrate" category.
  EXPECT_EQ(count_occurrences(json, "\"cat\":\"migrate\""), 2);
  // Counter tracks: one "C" event per sample, under the counters process.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"C\""), 4);
  EXPECT_NE(json.find("\"hv/lhp\""), std::string::npos);
  EXPECT_NE(json.find("\"hv/runnable_vcpus\""), std::string::npos);
  // LHP instant carries the on-CPU task id from the record's c payload.
  EXPECT_NE(json.find("\"task\":101"), std::string::npos);
  // Truncation marker sits at the first retained timestamp, not t=0.
  EXPECT_NE(json.find("\"head_us\":1000"), std::string::npos);
  // Options off ⇒ guest records are ignored (plain overload unchanged).
  const std::string plain =
      chrome_trace_json(tiny_full_records(), tiny_full_meta());
  EXPECT_EQ(plain.find("\"guest tasks\""), std::string::npos);
  EXPECT_EQ(count_occurrences(plain, "\"ph\":\"C\""), 0);
}

TEST(ObsExport, TinyTraceStructure) {
  const std::string json = chrome_trace_json(tiny_records(), tiny_meta());
  // Lane metadata for both processes and every lane.
  EXPECT_NE(json.find("\"pCPUs\""), std::string::npos);
  EXPECT_NE(json.find("\"vCPUs\""), std::string::npos);
  EXPECT_NE(json.find("\"pCPU 1\""), std::string::npos);
  EXPECT_NE(json.find("\"fg/vcpu1\""), std::string::npos);
  EXPECT_NE(json.find("\"bg0/vcpu0\""), std::string::npos);
  // Truncation marker with the drop accounting.
  EXPECT_NE(json.find("\"trace truncated\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":2"), std::string::npos);
  // 4 spans (v0; v2 split in two by the reschedule; v1 closed at the trace
  // end), each mirrored on the pCPU and vCPU lanes.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 8);
  // One SA flow pair and the two instants.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"s\""), 1);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"f\""), 1);
  EXPECT_NE(json.find("\"LHP\""), std::string::npos);
  EXPECT_NE(json.find("\"LWP\""), std::string::npos);
  EXPECT_NE(json.find("\"task\":5"), std::string::npos);
  // vCPU 1's span runs from 1 ms to meta.end (10 ms) = 9 ms duration.
  EXPECT_NE(json.find("\"ts\":1000,\"dur\":9000"), std::string::npos);
}

// ---------------------------------------------------------------------------
// retained_head: the one truncation head every analyzer shares
// ---------------------------------------------------------------------------

TEST(ObsRetainedHead, OldestRingRecordSkippingRequestBrackets) {
  // A back-dated kReqBegin (and its kReqEnd) sort ahead of the oldest
  // retained ring record; they come from the span log and never drop, so
  // they do not move the head.
  std::vector<sim::TraceRecord> ring = tiny_records();
  ring.erase(ring.begin(), ring.begin() + 2);  // oldest retained: 2 ms
  const std::vector<sim::TraceRecord> merged = with_request_spans(
      ring, {ReqSpan{sim::microseconds(200), sim::microseconds(1500), 1, 0,
                     101, 0}});
  ASSERT_EQ(merged.front().kind, sim::TraceKind::kReqBegin);
  const TraceMeta m = tiny_meta();  // dropped = 2
  EXPECT_EQ(retained_head(merged, m), sim::milliseconds(2));
  // Nothing but brackets (or nothing at all) survived: no evidence anywhere.
  const std::vector<sim::TraceRecord> only_brackets(merged.begin(),
                                                    merged.begin() + 2);
  EXPECT_EQ(retained_head(only_brackets, m), m.end);
  EXPECT_EQ(retained_head({}, m), m.end);
  // Nothing dropped: the trace is complete, whatever it starts with.
  TraceMeta complete = m;
  complete.dropped = 0;
  EXPECT_EQ(retained_head(merged, complete), -1);
}

TEST(ObsRetainedHead, AttributionForensicsAndExporterAgree) {
  std::vector<sim::TraceRecord> ring = tiny_full_records();
  ring.erase(ring.begin(), ring.begin() + 4);  // oldest retained: 2 ms
  const TraceMeta m = tiny_full_meta();  // dropped = 2
  const std::vector<sim::TraceRecord> merged = with_request_spans(
      ring, {ReqSpan{sim::microseconds(500), sim::milliseconds(4), 7, 0, 101,
                     0}});
  const sim::Time head = retained_head(merged, m);
  ASSERT_EQ(head, sim::milliseconds(2));
  EXPECT_EQ(attribute(merged, m).head_truncated_at, head);
  const ForensicsResult f = request_forensics(merged, m, SloResult{});
  EXPECT_EQ(f.head_truncated_at, head);
  // The span began before the head: reported, never charged.
  ASSERT_EQ(f.classes.size(), 1u);
  EXPECT_EQ(f.classes[0].truncated, 1u);
  EXPECT_EQ(f.classes[0].spans, 0u);
  const std::string json = chrome_trace_json(merged, m);
  EXPECT_NE(json.find("\"ts\":2000,\"args\":{\"head_us\":2000,"),
            std::string::npos)
      << json;
}

TEST(ObsExport, ScenarioTraceDumpIsWellFormed) {
  // A real (tiny) run end-to-end through run_scenario's dump path: the
  // exporter must emit valid JSON with on-CPU spans for the actual topology.
  exp::ScenarioConfig cfg;
  cfg.fg = "blackscholes";
  cfg.fg_threads = 2;
  cfg.n_vcpus = 2;
  cfg.n_pcpus = 2;
  cfg.strategy = core::Strategy::kIrs;
  cfg.work_scale = 0.05;
  cfg.seed = 11;

  exp::TraceDump dump;
  const exp::RunResult r =
      exp::run_scenario(cfg, exp::RunCapture{.dump = &dump});
  EXPECT_TRUE(r.finished);
  ASSERT_FALSE(dump.records.empty());
  ASSERT_EQ(dump.meta.vcpus.size(), 3u);  // 2 fg + 1 bg vCPU
  EXPECT_EQ(dump.meta.n_pcpus, 2);
  EXPECT_GT(dump.meta.end, dump.meta.start);

  // Snapshot ordering invariant the exporter depends on. Every record site
  // stamps the engine's now(), so the ring is chronological as appended.
  for (std::size_t i = 1; i < dump.records.size(); ++i) {
    EXPECT_LE(dump.records[i - 1].when, dump.records[i].when);
  }

  const std::string json = chrome_trace_json(dump.records, dump.meta);
  EXPECT_TRUE(balanced_json(json));
  EXPECT_NE(json.find("\"fg/vcpu0\""), std::string::npos);
  EXPECT_NE(json.find("\"bg0/vcpu0\""), std::string::npos);
  EXPECT_GT(count_occurrences(json, "\"ph\":\"X\""), 0);
  if (r.sa_sent > 0) {
    EXPECT_GT(count_occurrences(json, "\"ph\":\"s\""), 0);
  }
  if (r.lhp > 0) {
    EXPECT_GT(count_occurrences(json, "\"LHP\""), 0);
  }
}

TEST(ObsExport, RunWithoutDumpStaysUntraced) {
  // The plain overload must not pay for tracing: same scenario, no dump.
  exp::ScenarioConfig cfg;
  cfg.fg = "blackscholes";
  cfg.fg_threads = 2;
  cfg.n_vcpus = 2;
  cfg.n_pcpus = 2;
  cfg.work_scale = 0.05;
  cfg.seed = 11;
  exp::TraceDump dump;
  const exp::RunResult traced =
      exp::run_scenario(cfg, exp::RunCapture{.dump = &dump});
  const exp::RunResult plain = exp::run_scenario(cfg);
  // Tracing must not perturb the simulation.
  EXPECT_EQ(plain.fg_makespan, traced.fg_makespan);
  EXPECT_EQ(plain.lhp, traced.lhp);
  EXPECT_EQ(plain.sa_sent, traced.sa_sent);
}

}  // namespace
}  // namespace irs::obs
