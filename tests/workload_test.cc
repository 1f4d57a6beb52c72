/**
 * @file
 * Tests for the workload substrate: access-pattern generation, job
 * archetypes, Job stepping, and trace serialization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <sstream>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "compression/compressor.h"
#include "mem/zswap.h"
#include "util/rng.h"
#include "workload/access_pattern.h"
#include "workload/event_queue.h"
#include "workload/job.h"
#include "workload/job_profile.h"
#include "workload/trace.h"

namespace sdfm {
namespace {

// --------------------------------------------------------- event queue
//
// Differential tests: EventQueue must pop exactly the (time, page)
// order of a std::priority_queue over the same packed keys, whatever
// the wheel/overflow split, across checkpoint round trips.

constexpr SimTime kSpan = EventQueue::kWheelSpan;

/** Draws the gap after an access at @p t to @p page, or 0 to retire. */
using GapFn = std::function<SimTime(Rng &, SimTime t, PageId page)>;

/** The reference: a binary min-heap of the same packed keys. */
using RefQueue = std::priority_queue<std::uint64_t,
                                     std::vector<std::uint64_t>,
                                     std::greater<std::uint64_t>>;

/** Every queued key of @p ref, in the layout of its heap array. */
std::vector<std::uint64_t>
heap_array(RefQueue ref)
{
    std::vector<std::uint64_t> keys;
    while (!ref.empty()) {
        keys.push_back(ref.top());
        ref.pop();
    }
    // Sorted ascending is a valid binary heap layout; reverse it and
    // rebuild to get the genuinely heap-shaped order std::make_heap
    // (the layout the previous heap-based queue wrote) produces.
    std::reverse(keys.begin(), keys.end());
    std::make_heap(keys.begin(), keys.end(),
                   std::greater<std::uint64_t>());
    return keys;
}

/** Restore @p q from a key set written in the order of @p keys. */
bool
load_keys(EventQueue &q, const std::vector<std::uint64_t> &keys,
          std::uint32_t num_pages)
{
    Serializer s;
    s.put_u64(keys.size());
    for (std::uint64_t key : keys)
        s.put_u64(key);
    Deserializer d(s.bytes());
    return q.ckpt_load(d, num_pages) && d.ok() && d.at_end();
}

/** How the differential run checkpoints the queue mid-stream. */
enum class Restore { kNone, kRoundTrip, kShuffled, kHeapOrder };

struct QueueScenario
{
    std::uint32_t num_pages = 0;
    SimTime start = 0;
    /** First access time of each page (>= start). */
    std::function<SimTime(Rng &, PageId)> first;
    GapFn gap;
    /** Drain window lengths, used in turn. */
    std::vector<SimTime> windows;
    int drains = 0;
    Restore restore = Restore::kNone;
    int restore_every = 0;
};

/**
 * Run @p sc on both queues and require identical pop sequences.
 * @return total events popped (so callers can check coverage).
 */
std::uint64_t
run_differential(const QueueScenario &sc, std::uint64_t seed)
{
    Rng init(seed);
    EventQueue q;
    q.reset(sc.num_pages, sc.start);
    RefQueue ref;
    for (PageId p = 0; p < sc.num_pages; ++p) {
        SimTime t = sc.first(init, p);
        q.emplace(t, p);
        ref.push(EventQueue::make_key(t, p));
    }
    Rng gap_q(seed + 1), gap_ref(seed + 1), shuffle(seed + 2);
    SimTime now = sc.start;
    std::uint64_t total = 0;
    for (int i = 0; i < sc.drains; ++i) {
        SimTime end =
            now + sc.windows[static_cast<std::size_t>(i) % sc.windows.size()];
        std::vector<std::pair<SimTime, PageId>> got, want;
        std::uint64_t handled =
            q.drain_until(end, [&](SimTime t, PageId page) {
                got.emplace_back(t, page);
                SimTime g = sc.gap(gap_q, t, page);
                return g == 0 ? std::uint64_t{0}
                              : EventQueue::make_key(t + g, page);
            });
        const std::uint64_t end_key = EventQueue::make_key(end, 0);
        while (!ref.empty() && ref.top() < end_key) {
            std::uint64_t key = ref.top();
            ref.pop();
            SimTime t = static_cast<SimTime>(key >> 32);
            PageId page = static_cast<PageId>(key & 0xffffffffu);
            want.emplace_back(t, page);
            SimTime g = sc.gap(gap_ref, t, page);
            if (g != 0)
                ref.push(EventQueue::make_key(t + g, page));
        }
        EXPECT_EQ(handled, got.size());
        if (got != want) {
            ADD_FAILURE() << "pop order diverged in drain " << i
                          << " ending at " << end;
            return total;
        }
        EXPECT_EQ(q.size(), ref.size());
        total += got.size();
        now = end;

        if (sc.restore == Restore::kNone ||
            (i + 1) % sc.restore_every != 0)
            continue;
        EventQueue restored;
        if (sc.restore == Restore::kRoundTrip) {
            Serializer s;
            q.ckpt_save(s);
            Deserializer d(s.bytes());
            EXPECT_TRUE(restored.ckpt_load(d, sc.num_pages));
            EXPECT_TRUE(d.ok() && d.at_end());
        } else {
            std::vector<std::uint64_t> keys = heap_array(ref);
            if (sc.restore == Restore::kShuffled) {
                for (std::size_t k = keys.size(); k > 1; --k)
                    std::swap(keys[k - 1],
                              keys[shuffle.next_below(k)]);
            }
            EXPECT_TRUE(load_keys(restored, keys, sc.num_pages));
        }
        EXPECT_EQ(restored.size(), ref.size());
        q = std::move(restored);
    }
    return total;
}

/** Gaps spread across the wheel horizon, with exact boundary hits. */
SimTime
straddling_gap(Rng &rng, SimTime, PageId)
{
    std::uint64_t r = rng.next_below(100);
    if (r < 35)
        return 1 + static_cast<SimTime>(rng.next_below(90));
    if (r < 65)
        return 1 + static_cast<SimTime>(rng.next_below(2 * kSpan));
    if (r < 80) {
        // During a handler the wheel base is t + 1, so t + kSpan + 1
        // lands exactly at base + kSpan (the first overflow second)
        // and t + kSpan on the last wheel slot.
        static constexpr SimTime kEdges[] = {kSpan - 1, kSpan, kSpan + 1,
                                             kSpan + 2};
        return kEdges[rng.next_below(4)];
    }
    if (r < 90)
        return 2 * kSpan + static_cast<SimTime>(rng.next_below(kDay));
    if (r < 95)
        return 0;
    return 1;
}

TEST(EventQueue, MatchesPriorityQueueAcrossTheHorizon)
{
    QueueScenario sc;
    sc.num_pages = 3000;
    sc.start = 1000;
    sc.first = [&](Rng &rng, PageId p) {
        // Includes keys exactly at base + kSpan and at the base.
        if (p % 97 == 0)
            return sc.start + kSpan;
        if (p % 89 == 0)
            return sc.start;
        return sc.start +
               static_cast<SimTime>(rng.next_below(4 * kSpan));
    };
    sc.gap = straddling_gap;
    sc.windows = {kMinute, 1, 7, kMinute, 5 * kMinute, kSpan, kSpan + 1};
    sc.drains = 400;
    for (std::uint64_t seed : {1u, 2u, 3u})
        EXPECT_GT(run_differential(sc, seed), 20000u);
}

TEST(EventQueue, HeapAndWheelEventsDueInTheSameSecond)
{
    // Even pages jump 600 s (past the horizon: overflow heap), odd
    // pages 100 s (wheel), all starting together: every 600 s both
    // halves are due in the same second.
    QueueScenario sc;
    sc.num_pages = 1000;
    sc.first = [](Rng &, PageId) { return SimTime{0}; };
    sc.gap = [](Rng &rng, SimTime, PageId page) -> SimTime {
        if (rng.next_below(50) == 0)
            return 1 + static_cast<SimTime>(rng.next_below(3));
        return page % 2 == 0 ? 600 : 100;
    };
    sc.windows = {kMinute};
    sc.drains = 120;
    EXPECT_GT(run_differential(sc, 11), 30000u);
}

TEST(EventQueue, DrainsAcrossLongEmptyStretches)
{
    // A few pages with gaps of days: most windows are empty, the
    // wheel is usually empty, and some drains span weeks.
    QueueScenario sc;
    sc.num_pages = 16;
    sc.start = 5;
    sc.first = [&](Rng &rng, PageId) {
        return sc.start + static_cast<SimTime>(rng.next_below(kDay));
    };
    sc.gap = [](Rng &rng, SimTime, PageId) -> SimTime {
        if (rng.next_below(4) == 0)
            return 1 + static_cast<SimTime>(rng.next_below(kSpan));
        return kHour + static_cast<SimTime>(rng.next_below(3 * kDay));
    };
    sc.windows = {kMinute, kMinute, 30 * kDay, kMinute, kHour};
    sc.drains = 600;
    EXPECT_GT(run_differential(sc, 21), 1000u);
}

TEST(EventQueue, ManyPagesDueInOneSecond)
{
    // Every page due in the same few seconds, over and over: dense
    // batches, plus a sparse batch of the two end pages.
    QueueScenario sc;
    sc.num_pages = 20000;
    sc.first = [&](Rng &, PageId p) {
        return p == 0 || p + 1 == sc.num_pages ? SimTime{3} : SimTime{7};
    };
    sc.gap = [&](Rng &, SimTime, PageId p) -> SimTime {
        return p == 0 || p + 1 == sc.num_pages ? 13 : 9;
    };
    sc.windows = {kMinute};
    sc.drains = 10;
    std::uint64_t want = 0;
    for (SimTime t = 3; t < 10 * kMinute; t += 13)
        want += 2;
    for (SimTime t = 7; t < 10 * kMinute; t += 9)
        want += sc.num_pages - 2;
    EXPECT_EQ(run_differential(sc, 31), want);
}

TEST(EventQueue, CheckpointRoundTripMidStream)
{
    QueueScenario sc;
    sc.num_pages = 2000;
    sc.first = [](Rng &rng, PageId) {
        return static_cast<SimTime>(rng.next_below(3 * kSpan));
    };
    sc.gap = straddling_gap;
    sc.windows = {kMinute, 13, kSpan};
    sc.drains = 200;
    sc.restore = Restore::kRoundTrip;
    sc.restore_every = 7;
    EXPECT_GT(run_differential(sc, 41), 10000u);
}

TEST(EventQueue, RestoresKeysInAnyOrder)
{
    QueueScenario sc;
    sc.num_pages = 2000;
    sc.first = [](Rng &rng, PageId) {
        return static_cast<SimTime>(rng.next_below(3 * kSpan));
    };
    sc.gap = straddling_gap;
    sc.windows = {kMinute, 29};
    sc.drains = 150;
    sc.restore_every = 5;
    sc.restore = Restore::kShuffled;
    EXPECT_GT(run_differential(sc, 51), 8000u);
    // The layout a heap-based writer produced restores the same way.
    sc.restore = Restore::kHeapOrder;
    EXPECT_GT(run_differential(sc, 52), 8000u);
}

TEST(EventQueue, RestoreRejectsBadKeySets)
{
    const std::uint32_t pages = 100;
    EventQueue q;
    EXPECT_TRUE(load_keys(q, {}, pages));
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(load_keys(q,
                          {EventQueue::make_key(40, 3),
                           EventQueue::make_key(10, 99)},
                          pages));
    EXPECT_EQ(q.size(), 2u);
    // A page listed twice, at the same or another time.
    EXPECT_FALSE(load_keys(q,
                           {EventQueue::make_key(10, 3),
                            EventQueue::make_key(10, 3)},
                           pages));
    EXPECT_FALSE(load_keys(q,
                           {EventQueue::make_key(10, 3),
                            EventQueue::make_key(50, 4),
                            EventQueue::make_key(9000, 3)},
                           pages));
    // A page out of range.
    EXPECT_FALSE(load_keys(q, {EventQueue::make_key(10, pages)}, pages));
    // More keys than pages.
    std::vector<std::uint64_t> too_many;
    for (PageId p = 0; p <= pages; ++p)
        too_many.push_back(EventQueue::make_key(5, p % pages));
    EXPECT_FALSE(load_keys(q, too_many, pages));
}

TEST(EventQueueDeathTest, HandlerMustRescheduleAtLeastOneSecondLater)
{
    EventQueue q;
    q.reset(4, 0);
    q.emplace(10, 1);
    EXPECT_DEATH(q.drain_until(20,
                               [](SimTime t, PageId page) {
                                   return EventQueue::make_key(t, page);
                               }),
                 "assertion failed");
}

// ------------------------------------------------------ access pattern

TEST(AccessPattern, DeterministicForSameSeed)
{
    JobProfile profile = profile_by_name("bigtable");
    AccessPattern a(profile, 1000, Rng(5), 0);
    AccessPattern b(profile, 1000, Rng(5), 0);
    for (SimTime t = 0; t < 30 * kMinute; t += kMinute) {
        std::vector<std::pair<PageId, bool>> ea, eb;
        a.step(t, kMinute,
               [&](PageId p, bool w) { ea.emplace_back(p, w); });
        b.step(t, kMinute,
               [&](PageId p, bool w) { eb.emplace_back(p, w); });
        ASSERT_EQ(ea, eb);
    }
}

TEST(AccessPattern, ClassFractionsRoughlyMatchProfile)
{
    JobProfile profile;
    profile.hot_frac = 0.5;
    profile.warm_frac = 0.3;
    profile.diurnal_frac = 0.0;
    profile.cold_frac = 0.1;
    AccessPattern pattern(profile, 20000, Rng(3), 0);
    // Jitter is +/-25%-ish; allow slack.
    EXPECT_NEAR(pattern.class_fraction(ReuseClass::kHot), 0.5, 0.15);
    EXPECT_NEAR(pattern.class_fraction(ReuseClass::kWarm), 0.3, 0.12);
    EXPECT_NEAR(pattern.class_fraction(ReuseClass::kCold), 0.1, 0.06);
    double total = 0.0;
    for (int c = 0; c < static_cast<int>(ReuseClass::kNumClasses); ++c)
        total += pattern.class_fraction(static_cast<ReuseClass>(c));
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(AccessPattern, HotPagesAccessedOften)
{
    JobProfile profile;
    profile.hot_frac = 1.0;
    profile.warm_frac = 0.0;
    profile.diurnal_frac = 0.0;
    profile.cold_frac = 0.0;
    profile.hot_gap_mean = 30.0;
    profile.diurnal_amplitude = 0.0;
    AccessPattern pattern(profile, 100, Rng(7), 0);
    std::uint64_t accesses = 0;
    for (SimTime t = 0; t < kHour; t += kMinute)
        accesses += pattern.step(t, kMinute, [](PageId, bool) {});
    // 100 pages re-accessed every ~30 s for an hour: ~12000 events.
    EXPECT_GT(accesses, 8000u);
    EXPECT_LT(accesses, 16000u);
}

TEST(AccessPattern, FrozenPagesMostlySilent)
{
    JobProfile profile;
    profile.hot_frac = 0.0;
    profile.warm_frac = 0.0;
    profile.diurnal_frac = 0.0;
    profile.cold_frac = 0.0;  // all frozen
    profile.frozen_reaccess_prob = 0.0;
    AccessPattern pattern(profile, 1000, Rng(9), 0);
    std::uint64_t accesses = 0;
    for (SimTime t = 0; t < 4 * kHour; t += kMinute)
        accesses += pattern.step(t, kMinute, [](PageId, bool) {});
    // Exactly one initial touch per page, nothing after.
    EXPECT_EQ(accesses, 1000u);
}

TEST(AccessPattern, DiurnalMultiplierPeaksAtPeakHour)
{
    JobProfile profile;
    profile.diurnal_amplitude = 0.5;
    profile.diurnal_peak_hour = 14.0;
    AccessPattern pattern(profile, 10, Rng(11), 0);
    SimTime peak = static_cast<SimTime>(14.0 * 3600.0);
    SimTime trough = static_cast<SimTime>(2.0 * 3600.0);
    EXPECT_NEAR(pattern.diurnal_multiplier(peak), 1.5, 1e-9);
    EXPECT_NEAR(pattern.diurnal_multiplier(trough), 0.5, 1e-9);
}

TEST(AccessPattern, WriteFractionRespected)
{
    JobProfile profile;
    profile.hot_frac = 1.0;
    profile.warm_frac = 0.0;
    profile.diurnal_frac = 0.0;
    profile.cold_frac = 0.0;
    profile.write_frac = 0.25;
    AccessPattern pattern(profile, 200, Rng(13), 0);
    std::uint64_t writes = 0, total = 0;
    for (SimTime t = 0; t < 2 * kHour; t += kMinute) {
        total += pattern.step(t, kMinute, [&](PageId, bool w) {
            writes += w ? 1 : 0;
        });
    }
    ASSERT_GT(total, 1000u);
    EXPECT_NEAR(static_cast<double>(writes) / static_cast<double>(total),
                0.25, 0.03);
}

TEST(AccessPattern, ScanEventsTouchSwath)
{
    JobProfile profile;
    profile.hot_frac = 0.0;
    profile.warm_frac = 0.0;
    profile.diurnal_frac = 0.0;
    profile.cold_frac = 0.0;  // all frozen: only scans touch pages
    profile.frozen_reaccess_prob = 0.0;
    profile.scan_interval_mean = 30 * kMinute;
    profile.scan_fraction = 0.5;
    AccessPattern pattern(profile, 2000, Rng(21), 0);
    std::uint64_t accesses = 0;
    for (SimTime t = 0; t < 4 * kHour; t += kMinute)
        accesses += pattern.step(t, kMinute, [](PageId, bool) {});
    // Initial touches (2000) plus ~8 scans of ~1000 pages each.
    EXPECT_GT(accesses, 2000u + 3000u);
    EXPECT_LT(accesses, 2000u + 16000u);
}

TEST(AccessPattern, NoScansWhenDisabled)
{
    JobProfile profile;
    profile.hot_frac = 0.0;
    profile.warm_frac = 0.0;
    profile.diurnal_frac = 0.0;
    profile.cold_frac = 0.0;
    profile.frozen_reaccess_prob = 0.0;
    profile.scan_interval_mean = 0;  // disabled
    AccessPattern pattern(profile, 500, Rng(23), 0);
    EXPECT_EQ(pattern.next_scan(), 0);
    std::uint64_t accesses = 0;
    for (SimTime t = 0; t < 2 * kHour; t += kMinute)
        accesses += pattern.step(t, kMinute, [](PageId, bool) {});
    EXPECT_EQ(accesses, 500u);  // initial touches only
}

// ------------------------------------------------------------ profiles

TEST(JobProfileTest, TypicalMixIsWellFormed)
{
    FleetMix mix = typical_fleet_mix();
    ASSERT_EQ(mix.profiles.size(), mix.weights.size());
    ASSERT_GE(mix.profiles.size(), 5u);
    for (const JobProfile &p : mix.profiles) {
        EXPECT_FALSE(p.name.empty());
        EXPECT_GT(p.min_pages, 0u);
        EXPECT_LE(p.min_pages, p.max_pages);
        double reuse = p.hot_frac + p.warm_frac + p.diurnal_frac +
                       p.cold_frac;
        EXPECT_LE(reuse, 1.0 + 1e-9) << p.name;
        EXPECT_GE(p.write_frac, 0.0);
        EXPECT_LE(p.write_frac, 1.0);
    }
}

TEST(JobProfileTest, SampleCoversArchetypes)
{
    FleetMix mix = typical_fleet_mix();
    Rng rng(15);
    std::vector<int> counts(mix.profiles.size(), 0);
    for (int i = 0; i < 5000; ++i)
        ++counts[mix.sample(rng)];
    for (std::size_t i = 0; i < counts.size(); ++i)
        EXPECT_GT(counts[i], 0) << mix.profiles[i].name;
}

TEST(JobProfileTest, LookupByName)
{
    JobProfile p = profile_by_name("kv_cache");
    EXPECT_EQ(p.name, "kv_cache");
}

// ----------------------------------------------------------------- job

TEST(JobTest, SizeWithinProfileRange)
{
    JobProfile profile = profile_by_name("web_frontend");
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        Job job(1, profile, seed, 0);
        EXPECT_GE(job.memcg().num_pages(), profile.min_pages);
        EXPECT_LE(job.memcg().num_pages(), profile.max_pages);
    }
}

TEST(JobTest, StepChargesAppCycles)
{
    JobProfile profile = profile_by_name("bigtable");
    auto compressor = make_compressor(CompressionMode::kModeled);
    Zswap zswap(compressor.get(), 1);
    Job job(1, profile, 3, 0);
    JobStepStats stats = job.run_step(0, kMinute, zswap);
    EXPECT_GT(stats.accesses, 0u);
    EXPECT_DOUBLE_EQ(job.memcg().stats().app_cycles,
                     profile.cycles_per_access *
                         static_cast<double>(stats.accesses));
}

TEST(JobTest, BestEffortFlagPropagates)
{
    JobProfile profile = profile_by_name("batch_analytics");
    ASSERT_TRUE(profile.best_effort);
    Job job(1, profile, 3, 0);
    EXPECT_TRUE(job.memcg().best_effort());
}

// --------------------------------------------------------------- trace

TraceEntry
make_entry(JobId job, SimTime ts)
{
    TraceEntry entry;
    entry.job = job;
    entry.timestamp = ts;
    entry.wss_pages = 1234;
    entry.promo_delta.add(3, 7);
    entry.promo_delta.add(250, 1);
    entry.cold_hist.add(0, 100);
    entry.cold_hist.add(10, 50);
    entry.sli.zswap_promotions_delta = 5;
    entry.sli.zswap_stores_delta = 11;
    entry.sli.zswap_rejects_delta = 2;
    entry.sli.zswap_pages = 42;
    entry.sli.resident_pages = 999;
    entry.sli.cold_pages_min = 77;
    entry.sli.compressed_bytes = 123456;
    entry.sli.compress_cycles_delta = 1.5;
    entry.sli.decompress_cycles_delta = 2.5;
    entry.sli.app_cycles_delta = 1e9;
    entry.sli.decompress_latency_us_delta = 6.4;
    return entry;
}

TEST(TraceTest, SaveLoadRoundTrip)
{
    TraceLog log;
    log.append(make_entry(1, 300));
    log.append(make_entry(2, 300));
    log.append(make_entry(1, 600));

    std::stringstream ss;
    log.save(ss);

    TraceLog loaded;
    ASSERT_TRUE(loaded.load(ss));
    ASSERT_EQ(loaded.size(), 3u);
    EXPECT_EQ(loaded.entries()[0], log.entries()[0]);
    EXPECT_EQ(loaded.entries()[2], log.entries()[2]);
}

TEST(TraceTest, ByJobGroupsAndSorts)
{
    TraceLog log;
    log.append(make_entry(2, 600));
    log.append(make_entry(1, 900));
    log.append(make_entry(2, 300));
    auto traces = log.by_job();
    ASSERT_EQ(traces.size(), 2u);
    EXPECT_EQ(traces[0].job, 1u);
    EXPECT_EQ(traces[1].job, 2u);
    ASSERT_EQ(traces[1].entries.size(), 2u);
    EXPECT_LT(traces[1].entries[0].timestamp,
              traces[1].entries[1].timestamp);
}

TEST(TraceTest, LoadRejectsGarbage)
{
    TraceLog log;
    std::stringstream ss("not a trace\n");
    EXPECT_FALSE(log.load(ss));
}

TEST(TraceTest, LoadRejectsMissingSli)
{
    TraceLog log;
    std::stringstream ss("E 1 300 10\nP\nC\n");
    EXPECT_FALSE(log.load(ss));
}

TEST(TraceTest, EmptyLogRoundTrip)
{
    TraceLog log;
    std::stringstream ss;
    log.save(ss);
    TraceLog loaded;
    EXPECT_TRUE(loaded.load(ss));
    EXPECT_TRUE(loaded.empty());
}

/**
 * Property: serialization round-trips over randomized entries.
 */
class TraceRoundTrip : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TraceRoundTrip, Randomized)
{
    Rng rng(GetParam());
    TraceLog log;
    std::size_t n = 1 + rng.next_below(30);
    for (std::size_t i = 0; i < n; ++i) {
        TraceEntry entry;
        entry.job = rng.next_below(5);
        entry.timestamp = static_cast<SimTime>(rng.next_below(100000));
        entry.wss_pages = rng.next_below(1 << 20);
        for (int b = 0; b < 8; ++b) {
            entry.promo_delta.add(
                static_cast<AgeBucket>(rng.next_below(256)),
                rng.next_below(1000));
            entry.cold_hist.add(
                static_cast<AgeBucket>(rng.next_below(256)),
                rng.next_below(1000));
        }
        entry.sli.zswap_pages = rng.next_below(1 << 16);
        entry.sli.app_cycles_delta = rng.next_double() * 1e12;
        log.append(entry);
    }
    std::stringstream ss;
    log.save(ss);
    TraceLog loaded;
    ASSERT_TRUE(loaded.load(ss));
    ASSERT_EQ(loaded.size(), log.size());
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(loaded.entries()[i], log.entries()[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceRoundTrip,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace sdfm
