/**
 * @file
 * Tests of the benchmark's own math: the percentile rule, span
 * self-time subtraction and coverage, the span recorder, and seed
 * derivation.  (run.py --selftest additionally runs every workload at
 * a second seed through all of its output checks.)
 */

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <thread>

#include "bench.hh"

using namespace perfbench;

namespace
{

Span
span(const char *stage, int64_t start, int64_t end, int parent,
     bool group = false)
{
    Span s;
    s.stage = stage;
    s.startNs = start;
    s.endNs = end;
    s.parent = parent;
    s.group = group;
    return s;
}

std::vector<double>
oneTo(int n)
{
    std::vector<double> v(static_cast<size_t>(n));
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

} // namespace

TEST(Percentile, NearestRank)
{
    EXPECT_EQ(percentile(oneTo(100), 50), 50.0);
    EXPECT_EQ(percentile(oneTo(100), 99), 99.0);
    EXPECT_EQ(percentile(oneTo(1000), 99), 990.0);
    EXPECT_EQ(percentile(oneTo(11), 99), 11.0);
    EXPECT_EQ(percentile({7.0}, 50), 7.0);
    EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

TEST(Percentile, SupportedNeedsTenSamplesBeyond)
{
    // p99 needs 1000 samples: rank 990 leaves exactly 10 beyond.
    EXPECT_EQ(tailBeyond(1000, 99), 10);
    EXPECT_TRUE(percentileSupported(1000, 99));
    EXPECT_FALSE(percentileSupported(999, 99));
    // p50 needs 20.
    EXPECT_TRUE(percentileSupported(20, 50));
    EXPECT_FALSE(percentileSupported(19, 50));
    EXPECT_FALSE(percentileSupported(0, 50));
}

TEST(Percentile, MedianAndRatio)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_EQ(ratio(1.0, 0.0), 0.0);
}

TEST(SelfTime, SubtractsUnionOfChildrenClippedToParent)
{
    const std::vector<Span> spans = {
        span("root", 0, 100, -1, true),
        span("a", 10, 30, 0),
        span("b", 20, 50, 0),   // overlaps a: the union counts once
        span("c", 90, 120, 0),  // reaches past the parent: clipped
        span("d", 22, 25, 1),   // grandchild: only a's self shrinks
    };
    const std::vector<double> self = selfSeconds(spans);
    EXPECT_DOUBLE_EQ(self[0], 1e-9 * 50);  // 100 - [10,50] - [90,100]
    EXPECT_DOUBLE_EQ(self[1], 1e-9 * 17);
    EXPECT_DOUBLE_EQ(self[2], 1e-9 * 30);
    EXPECT_DOUBLE_EQ(self[4], 1e-9 * 3);
}

TEST(SelfTime, CoverageCountsStageSelfTimeOverRootTime)
{
    // Root 0..100 (group) holds a group 0..60 with a stage 0..50, and
    // a stage 60..95: stages explain 85 of 100.
    const std::vector<Span> spans = {
        span("root", 0, 100, -1, true),
        span("policy", 0, 60, 0, true),
        span("run", 0, 50, 1),
        span("fidelity", 60, 95, 0),
    };
    EXPECT_NEAR(stageCoverage(spans), 0.85, 1e-12);
    EXPECT_NEAR(busySeconds(spans), 1e-7, 1e-18);
    const auto totals = stageTotals(spans);
    EXPECT_EQ(totals.at("run").count, 1);
    EXPECT_NEAR(totals.at("policy").selfS, 1e-8, 1e-18);
}

TEST(Recorder, NestsPerThreadAndIsOffByDefault)
{
    clearSpans();
    {
        Scope ignored("ignored");
    }
    EXPECT_TRUE(collectSpans().empty());

    setTracing(true);
    {
        Scope outer("outer", true, "label");
        Scope inner("inner");
    }
    std::thread([] { Scope other("other"); }).join();
    setTracing(false);

    const std::vector<Span> spans = collectSpans();
    ASSERT_EQ(spans.size(), 3u);
    int outer = -1;
    for (size_t i = 0; i < spans.size(); i++) {
        if (spans[i].stage == "outer")
            outer = static_cast<int>(i);
    }
    ASSERT_GE(outer, 0);
    EXPECT_EQ(spans[static_cast<size_t>(outer)].label, "label");
    for (const Span &s : spans) {
        EXPECT_LE(s.startNs, s.endNs);
        if (s.stage == "inner")
            EXPECT_EQ(s.parent, outer);
        if (s.stage == "other") {
            EXPECT_EQ(s.parent, -1);
            EXPECT_NE(s.thread, spans[static_cast<size_t>(outer)].thread);
        }
    }
    clearSpans();
}

TEST(Seeds, DeterministicAndDistinct)
{
    EXPECT_EQ(deriveSeed(1, 7), deriveSeed(1, 7));
    std::set<uint64_t> seen;
    for (uint64_t seed = 0; seed < 16; seed++) {
        for (uint64_t tag = 0; tag < 64; tag++)
            seen.insert(deriveSeed(seed, tag));
    }
    EXPECT_EQ(seen.size(), 16u * 64u);
}

TEST(Repeat, RunsTheMinimumAndStopsNearTheBudget)
{
    int calls = 0;
    EXPECT_EQ(repeatFor(0.0, 1, [&](int) { calls++; }), 1);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(repeatFor(0.0, 3, [&](int) { calls++; }), 3);
    const int n = repeatFor(0.05, 1, [](int) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    });
    EXPECT_GE(n, 3);
    EXPECT_LE(n, 5);
}
