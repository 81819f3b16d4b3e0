// Unit tests for the trace ring buffer.
#include "src/sim/trace.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace irs::sim {
namespace {

TEST(Trace, DisabledByDefault) {
  Trace t;
  EXPECT_FALSE(t.enabled());
  t.record(0, TraceKind::kUser, 1, 2);  // ignored, no crash
  EXPECT_TRUE(t.snapshot().empty());
}

TEST(Trace, RecordsInOrder) {
  Trace t(16);
  for (int i = 0; i < 5; ++i) {
    t.record(i, TraceKind::kHvSchedule, i, -1);
  }
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(snap[static_cast<size_t>(i)].when, i);
    EXPECT_EQ(snap[static_cast<size_t>(i)].a, i);
  }
}

TEST(Trace, RingKeepsMostRecent) {
  Trace t(4);
  for (int i = 0; i < 10; ++i) {
    t.record(i, TraceKind::kUser, i, -1);
  }
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().a, 6);
  EXPECT_EQ(snap.back().a, 9);
}

TEST(Trace, CountByKind) {
  Trace t(32);
  t.record(0, TraceKind::kLhp, 0, 0);
  t.record(1, TraceKind::kLhp, 0, 0);
  t.record(2, TraceKind::kLwp, 0, 0);
  EXPECT_EQ(t.count(TraceKind::kLhp), 2u);
  EXPECT_EQ(t.count(TraceKind::kLwp), 1u);
  EXPECT_EQ(t.count(TraceKind::kSaSend), 0u);
}

TEST(Trace, ClearEmpties) {
  Trace t(8);
  t.record(0, TraceKind::kUser, 0, 0);
  t.clear();
  EXPECT_TRUE(t.snapshot().empty());
  EXPECT_EQ(t.count(TraceKind::kUser), 0u);
}

TEST(Trace, DumpContainsKindNames) {
  Trace t(8);
  t.record(milliseconds(1), TraceKind::kSaSend, 3, 0, "note");
  const auto s = t.dump();
  EXPECT_NE(s.find("sa.send"), std::string::npos);
  EXPECT_NE(s.find("note"), std::string::npos);
}

TEST(Trace, KindNamesAreDistinct) {
  EXPECT_STRNE(trace_kind_name(TraceKind::kLhp),
               trace_kind_name(TraceKind::kLwp));
  EXPECT_STRNE(trace_kind_name(TraceKind::kHvSchedule),
               trace_kind_name(TraceKind::kHvPreempt));
}

TEST(Trace, KindNamesAreUniqueExhaustively) {
  // Every TraceKind must have a unique, non-placeholder name — a kind
  // added without a name (or a copy-pasted duplicate) fails here.
  std::set<std::string> seen;
  for (int i = 0; i < kNumTraceKinds; ++i) {
    const auto kind = static_cast<TraceKind>(i);
    const char* name = trace_kind_name(kind);
    ASSERT_NE(name, nullptr) << "kind " << i;
    EXPECT_STRNE(name, "") << "kind " << i;
    EXPECT_STRNE(name, "?") << "kind " << i;
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name '" << name
                                          << "' for kind " << i;
  }
  // The request bracket kinds ride the public contract forensics relies on.
  EXPECT_STREQ(trace_kind_name(TraceKind::kReqBegin), "req.begin");
  EXPECT_STREQ(trace_kind_name(TraceKind::kReqEnd), "req.end");
}

}  // namespace
}  // namespace irs::sim
