// Unit tests for the observability substrate: the trace ring (direct
// append from every producer, exact-suffix retention, wrap-around
// accounting), owned trace notes, and the typed snapshot query helper.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/exp/runner.h"
#include "src/obs/trace_query.h"
#include "src/sim/rng.h"
#include "src/sim/trace.h"

namespace irs::obs {
namespace {

// ---------------------------------------------------------------------------
// The trace ring: producers append directly, so the snapshot is production
// order and a wrap keeps exactly the newest records
// ---------------------------------------------------------------------------

TEST(TraceRing, TwoProducersInterleaveInRecordOrder) {
  // Two modules sharing one ring (the hypervisor and a guest kernel hold
  // the same sim::Trace): the snapshot reads exactly as they recorded.
  sim::Trace t(256);
  auto hv = [&t](sim::Time when, int a) {
    t.record(when, sim::TraceKind::kHvSchedule, a, -1);
  };
  auto guest = [&t](sim::Time when, int a) {
    t.record(when, sim::TraceKind::kGuestSwitch, a, -1);
  };
  for (int i = 0; i < 20; ++i) {
    if (i % 3 == 0) {
      hv(i, i);
    } else {
      guest(i, i);
    }
  }
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    const sim::TraceRecord& r = snap[static_cast<std::size_t>(i)];
    EXPECT_EQ(r.when, i);
    EXPECT_EQ(r.a, i);
    EXPECT_EQ(r.kind, i % 3 == 0 ? sim::TraceKind::kHvSchedule
                                 : sim::TraceKind::kGuestSwitch);
  }
}

TEST(TraceRing, EqualTimestampsKeepProductionOrder) {
  sim::Trace t(64);
  t.record(7, sim::TraceKind::kLhp, 1, -1);
  t.record(7, sim::TraceKind::kHvPreempt, 2, -1);
  t.record(7, sim::TraceKind::kGuestWake, 3, -1);
  t.record(7, sim::TraceKind::kHvWake, 4, -1);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(snap[static_cast<std::size_t>(i)].a, i + 1);
  }
}

TEST(TraceRing, DisabledRingRecordsNothing) {
  sim::Trace disabled;  // capacity 0
  for (int i = 0; i < 100; ++i) {
    disabled.record(i, sim::TraceKind::kUser, i, -1, "x", i);
  }
  EXPECT_FALSE(disabled.enabled());
  EXPECT_TRUE(disabled.snapshot().empty());
  EXPECT_EQ(disabled.total_recorded(), 0u);
  EXPECT_EQ(disabled.dropped(), 0u);
  EXPECT_EQ(disabled.count(sim::TraceKind::kUser), 0u);
}

TEST(TraceRing, ExactSuffixFuzzAcrossCapacities) {
  // For every capacity (1 and non-powers of two included) and a random
  // record count below, at, and far past it: the snapshot is exactly the
  // last min(n, capacity) records in production order, and the accounting
  // balances — dropped + retained == total_recorded.
  sim::Rng rng(14);
  for (const std::size_t capacity :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{7},
        std::size_t{64}, std::size_t{100}, std::size_t{1000}}) {
    for (int iter = 0; iter < 8; ++iter) {
      const std::size_t n =
          iter == 0 ? capacity : rng.next_below(4 * capacity + 9);
      sim::Trace t(capacity);
      std::vector<sim::TraceRecord> produced;
      sim::Time now = 0;
      for (std::size_t i = 0; i < n; ++i) {
        now += static_cast<sim::Time>(rng.next_below(3));  // ties included
        const auto kind = static_cast<sim::TraceKind>(
            rng.next_below(static_cast<std::uint64_t>(sim::kNumTraceKinds)));
        const auto a = static_cast<std::int32_t>(i);
        const auto b = static_cast<std::int32_t>(rng.next_below(16));
        t.record(now, kind, a, b, "n", -a);
        produced.push_back(sim::TraceRecord{now, kind, a, b, -a, "n"});
      }
      SCOPED_TRACE(testing::Message()
                   << "capacity " << capacity << " n " << n);
      const sim::Trace& ro = t;  // snapshot/count are const
      const auto snap = ro.snapshot();
      const std::size_t keep = std::min(n, capacity);
      ASSERT_EQ(snap.size(), keep);
      EXPECT_EQ(ro.total_recorded(), n);
      EXPECT_EQ(ro.dropped() + snap.size(), ro.total_recorded());
      for (std::size_t i = 0; i < keep; ++i) {
        const sim::TraceRecord& want = produced[n - keep + i];
        EXPECT_EQ(snap[i].when, want.when) << "record " << i;
        EXPECT_EQ(snap[i].kind, want.kind) << "record " << i;
        EXPECT_EQ(snap[i].a, want.a) << "record " << i;
        EXPECT_EQ(snap[i].b, want.b) << "record " << i;
        EXPECT_EQ(snap[i].c, want.c) << "record " << i;
      }
      std::size_t users = 0;
      for (const sim::TraceRecord& r : snap) {
        if (r.kind == sim::TraceKind::kUser) ++users;
      }
      EXPECT_EQ(ro.count(sim::TraceKind::kUser), users);
    }
  }
}

exp::ScenarioConfig traced_model_cfg(std::size_t capacity) {
  exp::ScenarioConfig cfg;
  cfg.fg = "streamcluster";
  cfg.strategy = core::Strategy::kIrs;
  cfg.n_inter = 2;
  cfg.work_scale = 0.1;
  cfg.trace_capacity = capacity;
  return cfg;
}

TEST(TraceRing, WrappedModelRunKeepsExactSuffix) {
  // Tracing is passive, so the same run with a small ring appends the same
  // records: what it retains must be exactly the newest `capacity` of them.
  exp::TraceDump full;
  (void)exp::run_scenario(traced_model_cfg(1 << 18),
                          exp::RunCapture{.dump = &full});
  ASSERT_EQ(full.meta.dropped, 0u);
  for (const std::size_t capacity :
       {std::size_t{1}, std::size_t{97}, std::size_t{1000}}) {
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    exp::TraceDump d;
    (void)exp::run_scenario(traced_model_cfg(capacity),
                            exp::RunCapture{.dump = &d});
    ASSERT_EQ(d.meta.total_recorded, full.records.size());
    ASSERT_EQ(d.meta.dropped + d.records.size(), d.meta.total_recorded);
    ASSERT_EQ(d.records.size(), capacity);
    const std::size_t off = full.records.size() - capacity;
    for (std::size_t i = 0; i < capacity; ++i) {
      const sim::TraceRecord& want = full.records[off + i];
      EXPECT_EQ(d.records[i].when, want.when) << "record " << i;
      EXPECT_EQ(d.records[i].kind, want.kind) << "record " << i;
      EXPECT_EQ(d.records[i].a, want.a) << "record " << i;
      EXPECT_EQ(d.records[i].b, want.b) << "record " << i;
      EXPECT_EQ(d.records[i].c, want.c) << "record " << i;
      EXPECT_TRUE(d.records[i].note == want.note.c_str()) << "record " << i;
    }
  }
}

TEST(TraceRing, WrapIsDetectable) {
  sim::Trace t(4);
  for (int i = 0; i < 10; ++i) {
    t.record(i, sim::TraceKind::kUser, i, -1);
  }
  EXPECT_EQ(t.total_recorded(), 10u);
  EXPECT_EQ(t.dropped(), 6u);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().a, 6);  // oldest surviving record
  EXPECT_EQ(snap.back().a, 9);
  EXPECT_NE(t.dump().find("truncated"), std::string::npos);
}

TEST(TraceRing, NoWrapMeansNoDrops) {
  sim::Trace t(16);
  t.record(1, sim::TraceKind::kUser, 0, 0);
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_EQ(t.total_recorded(), 1u);
  EXPECT_EQ(t.dump().find("truncated"), std::string::npos);
}

TEST(TraceRing, ClearResetsAccounting) {
  sim::Trace t(2);
  for (int i = 0; i < 5; ++i) t.record(i, sim::TraceKind::kUser, i, -1);
  t.clear();
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_EQ(t.total_recorded(), 0u);
  EXPECT_TRUE(t.snapshot().empty());
}

// ---------------------------------------------------------------------------
// TraceNote ownership
// ---------------------------------------------------------------------------

TEST(TraceNote, OwnsItsCharacters) {
  // The old `const char*` field dangled when the producer's string died;
  // the note must survive the source buffer.
  sim::Trace t(8);
  {
    std::string ephemeral = "steal";
    t.record(0, sim::TraceKind::kHvSchedule, 0, 0, ephemeral.c_str());
    ephemeral.assign("XXXXXXXXXXXXXXXXXXXXXXXX");  // clobber the storage
  }
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_TRUE(snap[0].note == "steal");
}

TEST(TraceNote, TruncatesLongNotes) {
  const sim::TraceNote n("0123456789abcdefGHIJ");
  EXPECT_STREQ(n.c_str(), "0123456789abcde");  // kMax = 15 chars
  const sim::TraceNote empty;
  EXPECT_TRUE(empty.empty());
  const sim::TraceNote null_note(nullptr);
  EXPECT_TRUE(null_note.empty());
}

// ---------------------------------------------------------------------------
// TraceQuery
// ---------------------------------------------------------------------------

TEST(ObsTraceQuery, FiltersChain) {
  sim::Trace t(64);
  t.record(1, sim::TraceKind::kLhp, 0, 10);
  t.record(2, sim::TraceKind::kLhp, 1, 11);
  t.record(3, sim::TraceKind::kLwp, 0, 12);
  t.record(4, sim::TraceKind::kLhp, 0, 13);

  const TraceQuery q(t);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.of_kind(sim::TraceKind::kLhp).size(), 3u);
  EXPECT_EQ(q.of_kind(sim::TraceKind::kLhp).with_a(0).size(), 2u);
  EXPECT_EQ(q.between(2, 3).size(), 2u);  // bounds inclusive
  EXPECT_EQ(q.with_b(12).first().kind, sim::TraceKind::kLwp);
  EXPECT_TRUE(q.of_kind(sim::TraceKind::kSaSend).empty());
  EXPECT_EQ(q.last().when, 4);
}

}  // namespace
}  // namespace irs::obs
