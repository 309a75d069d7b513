/**
 * @file
 * Program-skeleton cache tests.
 *
 * The contract under test: prepare() against a warm cache re-binds a
 * cached structure, and the resulting program is *bit-identical* to a
 * cold compile — same distributions, any thread count, dense and
 * frame paths alike.  Plus the cache mechanics themselves: admission
 * once a structure recurs (first sightings are declined from the LRU
 * and held only in the admission window), clear() as a cold reset,
 * hit/miss/eviction counters, capacity clamping, the structural
 * inputs that separate keys, and exact-size skeletons.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <set>
#include <thread>

#include "circuit/circuit.hh"
#include "dd/sequences.hh"
#include "device/device.hh"
#include "experiments/fleet.hh"
#include "noise/compiled.hh"
#include "noise/machine.hh"
#include "noise/program_cache.hh"
#include "test_util.hh"
#include "transpile/transpiler.hh"
#include "workloads/benchmarks.hh"

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
 * Six qubits, each with a 1 us idle window between non-Clifford
 * gates: every one of the 2^6 DD masks lowers to a distinct schedule
 * (the adaptSearch neighbourhood shape).
 */
ScheduledCircuit
idleSchedule(const Device &device)
{
    Circuit c(6, 6);
    for (QubitId q = 0; q < 6; q++) {
        c.h(q);
        c.delay(1000.0, q);
        c.t(q);
    }
    for (QubitId q = 0; q + 1 < 6; q++)
        c.cx(q, q + 1);
    c.measureAll();
    return transpile(c, device, device.calibration(0)).schedule;
}

/** DD on the qubits whose bit is set in @p bits. */
ScheduledCircuit
maskVariant(const ScheduledCircuit &sched, const Device &device,
            unsigned bits)
{
    std::vector<bool> mask(static_cast<size_t>(sched.numQubits()));
    for (size_t q = 0; q < mask.size(); q++)
        mask[q] = ((bits >> q) & 1u) != 0;
    return insertDD(sched, device.calibration(0), DDOptions{}, mask);
}

/**
 * Cold-vs-warm bit-identity on one machine: the same schedule
 * prepared without a cache, through a cold cache (first sighting:
 * built, declined from the LRU, held in the window), and through the
 * now-warm cache (a window hit, promoted, + bind) must sample
 * identical distributions at every thread count.
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
    EXPECT_EQ(cache.stats().declined, 1u);
    EXPECT_EQ(cache.stats().entries, 0u);
    const PreparedCircuit hit = machine.prepare(sched);

    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().declined, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);
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

/** capacity() == size(): no growth slack left behind. */
template <typename T>
void
expectExactSize(const std::vector<T> &v, const std::string &what)
{
    EXPECT_EQ(v.capacity(), v.size()) << what;
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
    // One structure compile served all four cycles: the next cycle
    // found it in the window and admitted it.
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 3u);
    EXPECT_EQ(cache.stats().declined, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ProgramCache, FrameRebindToZeroRatesMatchesColdCompile)
{
    // A frame skeleton cached on one device, re-bound to a device that
    // pins a pulsed qubit's gate error, a measured qubit's readout
    // error and a used link's CX error to zero: the ops those rates
    // feed stay in the stream and bind Never.  The re-bound job equals
    // the pinned device's cold compile bit for bit and samples the
    // per-shot oracle's law.
    const Device device = Device::ibmqRome();
    const NoiseFlags flags = NoiseFlags::pauliOnly();
    const ScheduledCircuit sched = insertDDAll(
        cliffordSchedule(device), device.calibration(0), DDOptions{});
    QubitId pulsed = -1, measured = -1;
    int link = -1;
    for (const TimedOp &op : sched.ops()) {
        if (pulsed < 0 && op.ddPulse)
            pulsed = op.gate.qubit();
        if (measured < 0 && op.gate.type == GateType::Measure)
            measured = op.gate.qubit();
        if (link < 0 && op.gate.type == GateType::CX)
            link = op.linkIndex;
    }
    ASSERT_GE(pulsed, 0);
    ASSERT_GE(measured, 0);
    ASSERT_GE(link, 0);
    DeviceOverrides pins = device.overrides();
    pins.qubits[pulsed].gateError1Q = 0.0;
    pins.qubits[measured].readoutError10 = 0.0;
    pins.links[link].cxError = 0.0;
    const Device pinned(device.topology(), device.profile(), pins);

    // Both calibrations bind one unbound program into streams of the
    // same shape; the pinned rates bind Never.
    const ProgramSkeleton skel = buildPlanSkeleton(sched, flags);
    const FrameProgram unbound = buildFrameSkeleton(skel.plan, flags);
    const auto bind = [&](const Calibration &cal) {
        return bindFrameProgram(bindPlan(skel, cal, flags), unbound, cal,
                                flags);
    };
    const FrameProgram live = bind(device.calibration(0));
    const FrameProgram zeroed = bind(pinned.calibration(0));
    EXPECT_EQ(zeroed.ops.size(), live.ops.size());
    EXPECT_EQ(zeroed.err2q.size(), live.err2q.size());
    const auto never = [](const FrameBernoulli &b) {
        return b.mode == FrameBernoulli::Mode::Never;
    };
    const auto dense = [&](QubitId q) {
        return static_cast<size_t>(std::find(skel.plan.active.begin(),
                                             skel.plan.active.end(), q) -
                                   skel.plan.active.begin());
    };
    EXPECT_FALSE(never(live.pulseErr[dense(pulsed)]));
    EXPECT_TRUE(never(zeroed.pulseErr[dense(pulsed)]));
    EXPECT_EQ(std::count_if(zeroed.meas.begin(), zeroed.meas.end(),
                            [&](const FrameMeasOp &m) {
                                return never(m.err10);
                            }),
              1);
    EXPECT_GE(std::count_if(zeroed.err2q.begin(), zeroed.err2q.end(),
                            [&](const FrameErr2QOp &e) {
                                return never(e.prob);
                            }),
              1);

    ProgramCache cache(8);
    NoisyMachine first(device, 0, flags);
    first.setProgramCache(&cache);
    (void)first.prepare(sched, BackendKind::Stabilizer);
    NoisyMachine machine(pinned, 0, flags);
    machine.setProgramCache(&cache);
    const PreparedCircuit rebound =
        machine.prepare(sched, BackendKind::Stabilizer);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    ASSERT_TRUE(rebound.frameBatched());

    machine.setProgramCache(nullptr);
    const PreparedCircuit cold =
        machine.prepare(sched, BackendKind::Stabilizer);
    constexpr int kShots = 8000;
    const Distribution batch = machine.run(rebound, kShots, 31);
    for (int threads : {1, 4}) {
        EXPECT_TRUE(distributionsIdentical(
            batch, machine.run(cold, kShots, 31, threads)))
            << "threads=" << threads;
    }
    // The corpus tests' bound against the per-shot oracle.
    const Distribution oracle =
        machine.run(rebound, kShots, 31, 0, ExecMode::Interpreted);
    const Distribution control =
        machine.run(rebound, kShots, 31 + 77777, 0, ExecMode::Interpreted);
    EXPECT_LT(tvDistance(batch, oracle),
              1.6 * tvDistance(control, oracle) + 0.05);
}

TEST(ProgramCache, FrameTwirlsBindTheDenseCompilesPhases)
{
    // A twirl op carries only its idle gap; the bind folds the gap's
    // crosstalk phase.  Gap for gap, its Z threshold must be the one
    // the dense compile stamps on the same plan (which drops a zero
    // phase where the frame bind keeps a Never op).
    const Device device = Device::ibmqRome();
    NoiseFlags flags = NoiseFlags::pauliOnly();
    flags.crosstalk = true;
    flags.twirlCoherent = true;
    const Calibration cal = device.calibration(0);
    const ScheduledCircuit sched =
        insertDDAll(cliffordSchedule(device), cal, DDOptions{});
    const ProgramSkeleton skel = buildPlanSkeleton(sched, flags);
    const ExecutionPlan plan = bindPlan(skel, cal, flags);
    const FrameProgram frame = bindFrameProgram(
        plan, buildFrameSkeleton(skel.plan, flags), cal, flags);
    const ShotProgram dense = compileShotProgram(plan, cal, flags);

    std::vector<uint64_t> frame_twirls, dense_twirls;
    for (const FrameTwirlOp &t : frame.twirl) {
        if (t.prob.mode != FrameBernoulli::Mode::Never)
            frame_twirls.push_back(t.prob.thresh);
    }
    for (const CoherentOp &c : dense.coherent)
        dense_twirls.push_back(c.twirlThresh);
    ASSERT_FALSE(dense_twirls.empty());
    EXPECT_EQ(frame_twirls, dense_twirls);
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
    machine.prepare(a); // a recurs -> admitted
    EXPECT_EQ(cache.stats().entries, 1u);
    machine.prepare(b);
    machine.prepare(b); // b admitted -> evicts a
    machine.prepare(a); // evicted earlier -> miss again

    const ProgramCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_EQ(stats.hits, 2u);
    // The single-slot history forgot a when b first missed, so a's
    // return is a first sighting again.
    EXPECT_EQ(stats.declined, 3u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 1u);

    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().misses, 3u); // counters survive clear()
    EXPECT_EQ(cache.stats().declined, 3u);
}

TEST(ProgramCache, CapacityClampsToOne)
{
    EXPECT_EQ(ProgramCache(0).capacity(), 1u);
    EXPECT_EQ(ProgramCache(16).capacity(), 16u);
    // The admission window is an eighth of the capacity, at least one.
    EXPECT_EQ(ProgramCache(0).window(), 1u);
    EXPECT_EQ(ProgramCache(64).window(), 8u);
}

TEST(ProgramCache, FingerprintSeparatesBackendAndFlags)
{
    // Besides the schedule, the requested backend and the noise flags
    // are the structural inputs: each separates keys.
    const Device device = Device::ibmqRome();
    NoiseFlags flags = NoiseFlags::none();
    flags.t1Damping = true;
    const ScheduledCircuit sched = cliffordSchedule(device);
    const ProgramFingerprint base =
        skeletonFingerprint(sched, flags, BackendKind::Auto);
    EXPECT_TRUE(base ==
                skeletonFingerprint(sched, flags, BackendKind::Auto));
    EXPECT_FALSE(base ==
                 skeletonFingerprint(sched, flags, BackendKind::Dense));
    EXPECT_FALSE(base == skeletonFingerprint(sched, NoiseFlags::all(),
                                             BackendKind::Auto));
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
    EXPECT_EQ(cache.stats().declined, 0u);

    // Reference semantics still agree with the compiled path.
    EXPECT_TRUE(distributionsIdentical(
        interpreted, machine.run(sched, 256, 3, 1)));
}

TEST(ProgramCache, OneShotStructuresAreNotRetained)
{
    // The adaptSearch shape: every DD-mask variant of a decoy is a
    // distinct structure prepared once.  None of them may take an LRU
    // slot, only the newest window() keep a skeleton at all, and the
    // declined builds still bind bit-identically.
    const Device device = Device::synthetic(Topology::linear(6));
    const ScheduledCircuit base = idleSchedule(device);
    NoisyMachine machine(device, 0);
    ProgramCache cache(64);
    machine.setProgramCache(&cache);

    constexpr unsigned kVariants = 40;
    std::vector<ScheduledCircuit> variants;
    std::set<ProgramFingerprint> keys;
    for (unsigned bits = 0; bits < kVariants; bits++) {
        variants.push_back(maskVariant(base, device, bits));
        keys.insert(skeletonFingerprint(variants.back(), machine.flags(),
                                        BackendKind::Auto));
    }
    ASSERT_EQ(keys.size(), kVariants) << "mask variants must differ";

    std::vector<PreparedCircuit> prepared;
    for (const ScheduledCircuit &v : variants)
        prepared.push_back(machine.prepare(v));

    ProgramCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.misses, kVariants);
    EXPECT_EQ(stats.declined, kVariants);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.entries, 0u);

    // The oldest variant the window still holds comes back without a
    // build; the one before it has left the window, so it is rebuilt,
    // and retained because the history remembers it.
    const auto oldest_windowed = kVariants - cache.window();
    const PreparedCircuit promoted =
        machine.prepare(variants[oldest_windowed]);
    const PreparedCircuit rebuilt =
        machine.prepare(variants[oldest_windowed - 1]);
    stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, kVariants + 1);
    EXPECT_EQ(stats.declined, kVariants);
    EXPECT_EQ(stats.entries, 2u);

    NoisyMachine cold_machine(device, 0);
    cold_machine.setProgramCache(nullptr);
    const auto cold = [&](size_t bits) {
        return cold_machine.run(cold_machine.prepare(variants[bits]), 256,
                                17);
    };
    for (unsigned bits : {0u, 13u, kVariants - 1}) {
        SCOPED_TRACE("mask=" + std::to_string(bits));
        EXPECT_TRUE(distributionsIdentical(
            cold(bits), machine.run(prepared[bits], 256, 17)));
    }
    EXPECT_TRUE(distributionsIdentical(cold(oldest_windowed),
                                       machine.run(promoted, 256, 17)));
    EXPECT_TRUE(distributionsIdentical(cold(oldest_windowed - 1),
                                       machine.run(rebuilt, 256, 17)));
}

TEST(ProgramCache, ClearIsAColdReset)
{
    const Device device = Device::ibmqRome();
    NoisyMachine machine(device, 0);
    const ScheduledCircuit sched = denseSchedule(device);
    {
        ProgramCache cache(8);
        machine.setProgramCache(&cache);
        machine.prepare(sched);
        machine.prepare(sched);
        ASSERT_EQ(cache.stats().entries, 1u);

        // clear() forgets the skeleton and the structure: the next
        // prepare is a first sighting again, and the one after it
        // finds the skeleton in the window.
        cache.clear();
        EXPECT_EQ(cache.stats().entries, 0u);
        machine.prepare(sched);
        EXPECT_EQ(cache.stats().misses, 2u);
        EXPECT_EQ(cache.stats().declined, 2u);
        EXPECT_EQ(cache.stats().entries, 0u);
        machine.prepare(sched);
        EXPECT_EQ(cache.stats().hits, 2u);
        EXPECT_EQ(cache.stats().entries, 1u);
    }

    // The history holds the last capacity() distinct fingerprints
    // that missed: of N + 1 new ones, the oldest is forgotten.  The
    // window keeps the newest one's skeleton.
    constexpr size_t kCap = 4;
    ProgramCache cache(kCap);
    ASSERT_EQ(cache.window(), 1u);
    int builds = 0;
    auto touch = [&](uint64_t id) {
        cache.findOrBuild({0, id}, [&] {
            builds++;
            return ProgramSkeleton{};
        });
    };
    for (uint64_t id = 0; id <= kCap; id++)
        touch(id);
    EXPECT_EQ(cache.stats().declined, kCap + 1);
    EXPECT_EQ(cache.stats().entries, 0u);

    touch(kCap); // in the window: promoted, no build
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);
    touch(1); // remembered, out of the window: rebuilt and admitted
    EXPECT_EQ(cache.stats().entries, 2u);
    touch(0); // forgotten: a first sighting again
    EXPECT_EQ(cache.stats().declined, kCap + 2);
    EXPECT_EQ(cache.stats().entries, 2u);
    touch(1); // retained: no build
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(builds, static_cast<int>(kCap) + 3);
}

TEST(ProgramCache, ConcurrentFirstSightingsRetainOne)
{
    // Racing first builds of one new structure: exactly one is the
    // first sighting, and the structure is admitted once, by a later
    // lookup or finishing build; the rest share that skeleton.
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0);
    const ScheduledCircuit sched = denseSchedule(device);
    ProgramCache cache(8);
    NoisyMachine cached = machine;
    cached.setProgramCache(&cache);

    constexpr int kThreads = 8;
    std::vector<PreparedCircuit> prepared(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            prepared[static_cast<size_t>(t)] = cached.prepare(sched);
        });
    }
    for (std::thread &th : threads)
        th.join();

    const ProgramCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.declined, 1u);
    EXPECT_EQ(stats.hits + stats.misses, static_cast<uint64_t>(kThreads));

    NoisyMachine cold = machine;
    cold.setProgramCache(nullptr);
    const Distribution ref = cold.run(cold.prepare(sched), 512, 23);
    for (const PreparedCircuit &p : prepared)
        EXPECT_TRUE(distributionsIdentical(ref, cold.run(p, 512, 23)));
}

TEST(ProgramCache, StructurePhaseLeavesExactSizes)
{
    // A retained skeleton must not carry growth slack: DD-padded
    // schedules fuse thousands of ops into a few hundred steps.
    {
        SCOPED_TRACE("dense: QAOA-10B All-DD on Toronto");
        const Device device = Device::ibmqToronto();
        const Calibration cal = device.calibration(0);
        Circuit circuit(1, 1);
        for (const Workload &w : paperBenchmarks()) {
            if (w.name == "QAOA-10B")
                circuit = w.circuit;
        }
        ASSERT_GT(circuit.numQubits(), 1);
        const ScheduledCircuit sched = insertDDAll(
            transpile(circuit, device, cal).schedule, cal, DDOptions{});

        const ProgramSkeleton skel =
            buildPlanSkeleton(sched, NoiseFlags::all());
        expectExactSize(skel.plan.steps, "plan.steps");
        for (size_t si = 0; si < skel.plan.steps.size(); si++)
            expectExactSize(skel.plan.steps[si].pulses,
                            "steps[" + std::to_string(si) + "].pulses");
        const ShotTables tables = buildShotTables(skel.plan);
        ASSERT_FALSE(tables.matrices.empty());
        expectExactSize(tables.matrices, "matrices");
        expectExactSize(tables.perStep, "perStep");
    }
    {
        SCOPED_TRACE("frame: DD-padded Clifford on Rome");
        const Device device = Device::ibmqRome();
        const NoiseFlags flags = NoiseFlags::pauliOnly();
        const ScheduledCircuit sched =
            insertDDAll(cliffordSchedule(device),
                        device.calibration(0), DDOptions{});
        ASSERT_GT(ddPulseCount(sched), 0);

        const ProgramSkeleton skel = buildPlanSkeleton(sched, flags);
        expectExactSize(skel.plan.steps, "plan.steps");
        for (const PlanStep &step : skel.plan.steps)
            expectExactSize(step.pulses, "pulses");
        const FrameProgram frame = buildFrameSkeleton(skel.plan, flags);
        ASSERT_FALSE(frame.err1q.empty());
        ASSERT_FALSE(frame.markov.empty());
        ASSERT_FALSE(frame.classes.flipQubits.empty());
        expectExactSize(frame.ops, "ops");
        expectExactSize(frame.f1q, "f1q");
        expectExactSize(frame.err1q, "err1q");
        expectExactSize(frame.errMapped, "errMapped");
        expectExactSize(frame.markov, "markov");
        expectExactSize(frame.meas, "meas");
        expectExactSize(frame.classes.flipQubits, "flipQubits");
    }
}

TEST(ProgramCache, DriftSweepTimesPureRebinds)
{
    // driftSweep's untimed warm-up must leave the skeleton cached (in
    // the window), so every timed cached prepare is a hit: a pure
    // re-bind.
    Circuit c(3, 3);
    c.h(0);
    c.cx(0, 1);
    c.delay(600.0, 2);
    c.cx(1, 2);
    c.measureAll();
    const Workload workload{"ghz3-idle", c};
    const std::vector<Device> fleet = makeSyntheticFleet({.devices = 2});

    for (const NoiseFlags &flags :
         {NoiseFlags::all(), NoiseFlags::pauliOnly()}) {
        const DriftSweepResult r = driftSweep(
            fleet, workload, {.cycles = 3, .shots = 0, .flags = flags});
        EXPECT_EQ(r.cacheHits, static_cast<uint64_t>(r.devices * r.cycles));
        EXPECT_EQ(r.cacheMisses, static_cast<uint64_t>(r.devices));
        EXPECT_EQ(r.devices, 2);
        EXPECT_EQ(r.cycles, 3);
    }
}
