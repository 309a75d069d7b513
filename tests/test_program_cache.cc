/**
 * @file
 * Program-skeleton cache tests.
 *
 * The contract under test: prepare() against a warm cache re-binds a
 * cached structure, and the resulting program is *bit-identical* to a
 * cold compile — same distributions, any thread count, dense and
 * frame paths alike.  Plus the cache mechanics themselves: hit/miss/
 * eviction counters, capacity clamping, and fingerprint sensitivity
 * to the frame engine's branch-tail depth (by value, not spelling).
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "circuit/circuit.hh"
#include "device/device.hh"
#include "noise/machine.hh"
#include "noise/program_cache.hh"
#include "test_util.hh"
#include "transpile/transpiler.hh"

using namespace adapt;
using namespace adapt::testutil;

namespace
{

/** A small non-Clifford workload (T gates force the dense backend). */
ScheduledCircuit
denseSchedule(const Device &device)
{
    Circuit c(3, 3);
    c.h(0);
    c.t(0);
    c.cx(0, 1);
    c.t(1);
    c.cx(1, 2);
    c.h(2);
    c.measureAll();
    return transpile(c, device, device.calibration(0)).schedule;
}

/** An all-Clifford workload with idle windows (stabilizer / frame). */
ScheduledCircuit
cliffordSchedule(const Device &device)
{
    Circuit c(3, 3);
    c.h(0);
    c.cx(0, 1);
    c.delay(800.0, 2);
    c.s(1);
    c.cx(1, 2);
    c.measureAll();
    return transpile(c, device, device.calibration(0)).schedule;
}

/**
 * Cold-vs-warm bit-identity on one machine: the same schedule
 * prepared without a cache, through a cold cache (miss + bind), and
 * through the now-warm cache (hit + bind) must sample identical
 * distributions at every thread count.
 */
void
expectCachedPreparesIdentical(const NoisyMachine &machine_const,
                              const ScheduledCircuit &sched)
{
    NoisyMachine machine = machine_const;
    ProgramCache cache(8);

    machine.setProgramCache(nullptr);
    const PreparedCircuit cold = machine.prepare(sched);

    machine.setProgramCache(&cache);
    const PreparedCircuit miss = machine.prepare(sched);
    const PreparedCircuit hit = machine.prepare(sched);

    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cold.backend(), hit.backend());
    EXPECT_EQ(cold.frameBatched(), hit.frameBatched());

    for (int threads : {1, 4, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const Distribution ref =
            machine.run(cold, 512, /*seed=*/7, threads);
        EXPECT_TRUE(distributionsIdentical(
            ref, machine.run(miss, 512, 7, threads)));
        EXPECT_TRUE(distributionsIdentical(
            ref, machine.run(hit, 512, 7, threads)));
    }
}

} // namespace

TEST(ProgramCache, DensePathBitIdentical)
{
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0);
    const ScheduledCircuit sched = denseSchedule(device);
    ASSERT_EQ(machine.chooseBackend(sched), BackendKind::Dense);
    expectCachedPreparesIdentical(machine, sched);
}

TEST(ProgramCache, FramePathBitIdentical)
{
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    const ScheduledCircuit sched = cliffordSchedule(device);
    ASSERT_EQ(machine.chooseBackend(sched), BackendKind::Stabilizer);
    expectCachedPreparesIdentical(machine, sched);
}

TEST(ProgramCache, RebindAcrossDriftedCalibrations)
{
    // The serving scenario: one skeleton, many calibration cycles.
    // Every cycle's warm prepare must match that cycle's cold compile
    // exactly — constants are re-bound, never stale.
    const Device device = Device::ibmqRome();
    const ScheduledCircuit sched = denseSchedule(device);
    ProgramCache cache(8);

    for (int cycle = 0; cycle < 4; cycle++) {
        SCOPED_TRACE("cycle=" + std::to_string(cycle));
        NoisyMachine machine(device, cycle);

        machine.setProgramCache(nullptr);
        const Distribution ref =
            machine.run(machine.prepare(sched), 512, 11);

        machine.setProgramCache(&cache);
        EXPECT_TRUE(distributionsIdentical(
            ref, machine.run(machine.prepare(sched), 512, 11)));
    }
    // One structure compile served all four cycles.
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 3u);
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ProgramCache, DistinctStructuresMissAndEvict)
{
    const Device device = Device::ibmqRome();
    NoisyMachine machine(device, 0);
    ProgramCache cache(1); // single-slot: second structure evicts
    machine.setProgramCache(&cache);

    const ScheduledCircuit a = denseSchedule(device);
    const ScheduledCircuit b = cliffordSchedule(device);

    machine.prepare(a);
    machine.prepare(b); // different fingerprint -> miss + eviction
    machine.prepare(a); // evicted earlier -> miss again

    const ProgramCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.evictions, 2u);
    EXPECT_EQ(stats.entries, 1u);

    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().misses, 3u); // counters survive clear()
}

TEST(ProgramCache, CapacityClampsToOne)
{
    EXPECT_EQ(ProgramCache(0).capacity(), 1u);
    EXPECT_EQ(ProgramCache(16).capacity(), 16u);
}

TEST(ProgramCache, FingerprintTracksFrameKnobs)
{
    // prepare() resolves ADAPT_FRAME_BRANCH_DEPTH at the edge and the
    // fingerprint folds the parsed depth, so toggling the knob between
    // prepares may not serve a stale skeleton.
    const Device device = Device::ibmqRome();
    NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    const ScheduledCircuit sched = cliffordSchedule(device);
    ProgramCache cache(8);
    machine.setProgramCache(&cache);

    // Own the knob for the duration of the test (the ambient
    // environment could carry any value).
    ASSERT_EQ(unsetenv("ADAPT_FRAME_BRANCH_DEPTH"), 0);
    machine.prepare(sched);
    machine.prepare(sched);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);

    ASSERT_EQ(setenv("ADAPT_FRAME_BRANCH_DEPTH", "0", 1), 0);
    machine.prepare(sched);
    ASSERT_EQ(unsetenv("ADAPT_FRAME_BRANCH_DEPTH"), 0);
    EXPECT_EQ(cache.stats().misses, 2u) << "depth 0 must re-key";

    // Restored environment -> restored key.
    machine.prepare(sched);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 2u);

    // The depth and the other structural inputs separate keys.
    const ProgramFingerprint base = skeletonFingerprint(
        sched, machine.flags(), BackendKind::Auto, 8);
    EXPECT_TRUE(base == skeletonFingerprint(sched, machine.flags(),
                                            BackendKind::Auto, 8));
    EXPECT_FALSE(base == skeletonFingerprint(sched, machine.flags(),
                                             BackendKind::Auto, 0));
    EXPECT_FALSE(base == skeletonFingerprint(sched, machine.flags(),
                                             BackendKind::Dense, 8));
    EXPECT_FALSE(base == skeletonFingerprint(sched, NoiseFlags::all(),
                                             BackendKind::Auto, 8));
}

TEST(ProgramCache, ExplicitDefaultBranchDepthHitsCache)
{
    // Unset and an explicit ADAPT_FRAME_BRANCH_DEPTH=8 (the default)
    // build the same skeleton, so they must share one cache key.
    const Device device = Device::ibmqRome();
    NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    const ScheduledCircuit sched = cliffordSchedule(device);
    ProgramCache cache(8);
    machine.setProgramCache(&cache);

    ASSERT_EQ(unsetenv("ADAPT_FRAME_BRANCH_DEPTH"), 0);
    const PreparedCircuit unset = machine.prepare(sched);
    ASSERT_EQ(setenv("ADAPT_FRAME_BRANCH_DEPTH", "8", 1), 0);
    const PreparedCircuit spelled = machine.prepare(sched);
    ASSERT_EQ(unsetenv("ADAPT_FRAME_BRANCH_DEPTH"), 0);

    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_TRUE(distributionsIdentical(machine.run(unset, 512, 5),
                                       machine.run(spelled, 512, 5)));
}

TEST(ProgramCache, InterpretedRunsBypassTheCache)
{
    // ExecMode::Interpreted prepares skip compilation, so they must
    // not populate (or read) the cache — and still execute correctly.
    const Device device = Device::ibmqRome();
    NoisyMachine machine(device, 0);
    ProgramCache cache(8);
    machine.setProgramCache(&cache);

    const ScheduledCircuit sched = denseSchedule(device);
    const Distribution interpreted =
        machine.run(sched, 256, 3, 1, BackendKind::Auto,
                    ExecMode::Interpreted);
    EXPECT_EQ(cache.stats().misses, 0u);
    EXPECT_EQ(cache.stats().hits, 0u);

    // Reference semantics still agree with the compiled path.
    EXPECT_TRUE(distributionsIdentical(
        interpreted, machine.run(sched, 256, 3, 1)));
}
