/**
 * @file
 * Tests for the parallel shot-execution engine and its supporting
 * utilities: deterministic chunking and nested scheduling in
 * parallelFor, the flat open-addressing accumulator,
 * thread-count-invariant NoisyMachine output, and single-qubit runs
 * fusing in the state vector's pending operators.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/flat_accumulator.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "noise/machine.hh"
#include "sim/statevector.hh"
#include "transpile/transpiler.hh"

using namespace adapt;

// ------------------------------------------------------------ parallelFor

TEST(ParallelFor, CoversRangeExactlyOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(0, 1000, 8, [&](int64_t lo, int64_t hi, int) {
        for (int64_t i = lo; i < hi; i++)
            hits[static_cast<size_t>(i)]++;
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ChunkBoundariesAreDeterministic)
{
    // Chunk layout must depend only on (range, chunk count), so the
    // per-chunk partial sums are reproducible across runs and pools.
    auto partials = [](int64_t n, int chunks) {
        std::vector<int64_t> sums(static_cast<size_t>(chunks), -1);
        parallelFor(0, n, chunks, [&](int64_t lo, int64_t hi, int c) {
            int64_t s = 0;
            for (int64_t i = lo; i < hi; i++)
                s += i;
            sums[static_cast<size_t>(c)] = s;
        });
        return sums;
    };
    EXPECT_EQ(partials(1003, 7), partials(1003, 7));
    int64_t total = 0;
    for (int64_t s : partials(1003, 7))
        total += s;
    EXPECT_EQ(total, 1003 * 1002 / 2);
}

TEST(ParallelFor, MoreChunksThanElements)
{
    std::atomic<int> count{0};
    parallelFor(0, 3, 16, [&](int64_t lo, int64_t hi, int) {
        count += static_cast<int>(hi - lo);
    });
    EXPECT_EQ(count.load(), 3);
}

TEST(ParallelFor, NestedChunksReachIdleThreads)
{
    if (defaultThreads() < 2)
        GTEST_SKIP() << "needs a pool of at least 2 threads";
    // Outer chunk 0 returns at once, so its thread goes idle while
    // outer chunk 1 opens an inner loop whose chunks each wait until
    // two distinct threads have entered one.  A pool that runs nested
    // loops inline on one thread times out here.
    std::mutex mu;
    std::condition_variable seen_changed;
    std::set<std::thread::id> seen;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    parallelFor(0, 2, 2, [&](int64_t, int64_t, int outer) {
        if (outer != 1)
            return;
        parallelFor(0, 4, 4, [&](int64_t, int64_t, int) {
            std::unique_lock<std::mutex> lock(mu);
            seen.insert(std::this_thread::get_id());
            seen_changed.notify_all();
            seen_changed.wait_until(lock, deadline,
                                    [&] { return seen.size() >= 2; });
        });
    });
    EXPECT_GE(seen.size(), 2u);
}

TEST(ParallelFor, NestedExceptionReachesOutermostCaller)
{
    EXPECT_THROW(
        parallelFor(0, 4, 4,
                    [&](int64_t lo, int64_t, int) {
                        parallelFor(0, 8, 4, [&](int64_t ilo, int64_t,
                                                 int) {
                            if (lo == 2 && ilo == 4)
                                throw std::runtime_error("nested boom");
                        });
                    }),
        std::runtime_error);
    // The pool is still whole afterwards.
    std::atomic<int> total{0};
    parallelFor(0, 4, 4, [&](int64_t, int64_t, int) {
        parallelFor(0, 10, 4, [&](int64_t lo, int64_t hi, int) {
            total += static_cast<int>(hi - lo);
        });
    });
    EXPECT_EQ(total.load(), 40);
}

TEST(ParallelFor, ConcurrentOutsideCallersNestCorrectly)
{
    // Two threads outside the pool each drive nested loops at once,
    // so their batches interleave in the pool.
    const auto drive = [](int64_t &result) {
        std::atomic<int64_t> total{0};
        for (int round = 0; round < 20; round++) {
            parallelFor(0, 8, 4, [&](int64_t lo, int64_t hi, int) {
                for (int64_t i = lo; i < hi; i++) {
                    parallelFor(0, 100, 4,
                                [&](int64_t ilo, int64_t ihi, int) {
                        int64_t s = 0;
                        for (int64_t j = ilo; j < ihi; j++)
                            s += i * j;
                        total += s;
                    });
                }
            });
        }
        result = total.load();
    };
    int64_t a = -1, b = -1;
    std::thread ta(drive, std::ref(a));
    std::thread tb(drive, std::ref(b));
    ta.join();
    tb.join();
    // 20 rounds x sum_i i x sum_j j = 20 x 28 x 4950.
    EXPECT_EQ(a, 20 * 28 * 4950);
    EXPECT_EQ(b, 20 * 28 * 4950);
}

TEST(ParallelFor, PropagatesExceptions)
{
    EXPECT_THROW(
        parallelFor(0, 100, 4,
                    [&](int64_t lo, int64_t, int) {
                        if (lo >= 0)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);
}

TEST(ResolveThreads, PositivePassesThrough)
{
    EXPECT_EQ(resolveThreads(3), 3);
    EXPECT_EQ(resolveThreads(0), defaultThreads());
    EXPECT_EQ(resolveThreads(-1), defaultThreads());
    EXPECT_GE(defaultThreads(), 1);
}

// ------------------------------------------------------ FlatAccumulator

TEST(FlatAccumulator, MatchesMapReference)
{
    FlatAccumulator acc;
    std::map<uint64_t, double> ref;
    Rng rng(123);
    for (int i = 0; i < 5000; i++) {
        // Small key space forces collisions; huge keys test hashing.
        const uint64_t key = rng.bernoulli(0.5)
                                 ? rng.uniformInt(37)
                                 : rng.next();
        const double w = rng.uniform();
        acc.add(key, w);
        ref[key] += w;
    }
    EXPECT_EQ(acc.size(), ref.size());
    const auto items = acc.sortedItems();
    ASSERT_EQ(items.size(), ref.size());
    auto it = ref.begin();
    for (const auto &[key, value] : items) {
        EXPECT_EQ(key, it->first);
        EXPECT_DOUBLE_EQ(value, it->second);
        ++it;
    }
}

TEST(FlatAccumulator, GrowsPastInitialCapacity)
{
    FlatAccumulator acc(2);
    for (uint64_t k = 0; k < 10000; k++)
        acc.add(k, 1.0);
    EXPECT_EQ(acc.size(), 10000u);
    EXPECT_DOUBLE_EQ(acc.value(9999), 1.0);
    EXPECT_DOUBLE_EQ(acc.value(10001), 0.0);
}

// ------------------------------------- thread-count-invariant machine

namespace
{

/** A circuit with real idle structure so every noise channel fires. */
CompiledProgram
testProgram(const Device &device)
{
    Circuit c(3);
    c.h(0);
    c.h(2);
    c.cx(0, 1);
    for (int i = 0; i < 4; i++)
        c.cx(1, 2);
    c.h(0);
    c.h(2);
    c.measureAll();
    return transpile(c, device, device.calibration(0));
}

} // namespace

TEST(ParallelMachine, BitIdenticalAcrossThreadCounts)
{
    const Device device = Device::ibmqLondon();
    const NoisyMachine machine(device);
    const CompiledProgram program = testProgram(device);
    const int shots = 600;
    const uint64_t seed = 20260731;

    const Distribution serial =
        machine.run(program.schedule, shots, seed, 1);
    for (int threads : {2, 8}) {
        const Distribution parallel =
            machine.run(program.schedule, shots, seed, threads);
        EXPECT_EQ(parallel.totalSamples(), serial.totalSamples());
        // probabilities() compares exactly: counts are integers and
        // the normalization is the same division, so any mismatch is
        // a real determinism bug, not round-off.
        EXPECT_EQ(parallel.probabilities(), serial.probabilities())
            << "thread count " << threads
            << " changed the output distribution";
    }
}

TEST(ParallelMachine, AutoThreadsMatchesSerial)
{
    const Device device = Device::ibmqLondon();
    const NoisyMachine machine(device);
    const CompiledProgram program = testProgram(device);
    const Distribution a = machine.run(program.schedule, 300, 7, 1);
    const Distribution b = machine.run(program.schedule, 300, 7, 0);
    EXPECT_EQ(a.probabilities(), b.probabilities());
}

// ------------------------------------------------------- fused 1Q gates

TEST(FusedGates, SkipsStructuralGates)
{
    // H, Barrier, I, H gate by gate on a qubit above the live prefix:
    // both H's fuse in the qubit's pending operator, and Barrier / I
    // must not break the H·H = I product.
    const std::vector<Gate> gates = {
        {GateType::H, {7}},
        {GateType::Barrier, {}},
        {GateType::I, {7}},
        {GateType::H, {7}},
    };
    StateVector s(8);
    for (const Gate &gate : gates)
        s.applyGate(gate);
    EXPECT_EQ(s.liveQubits(), 1);
    EXPECT_NEAR(s.probability(0), 1.0, 1e-12);
}
