/**
 * @file
 * Grouped (shot-batched) dense replay vs. the per-shot reference.
 *
 * The contract under test (noise/compiled.hh BatchShotReplayer):
 * grouping a block's shots by resolved error pattern and running each
 * group's shared event-free prefix once changes *nothing observable*
 * — for any noise-flag combination, seed, thread count, and
 * batch-vs-serial split, a compiled run is bit-identical to the
 * interpreted reference (ExecMode::Interpreted).  Grouping only
 * engages on programs without per-shot OU phases, so the identity,
 * cancellation, and occupancy locks run on machines with OU
 * dephasing off; full-noise inputs stay in the corpus as identity
 * checks of the per-shot path they take.  The suite also pins the
 * dispatch rules (OU programs and wide registers stay per-shot) and
 * the occupancy counters surfaced through RunOutcome::denseStats.
 *
 * Run under ADAPT_NUM_THREADS=1/4/8 in CI: the thread-identity
 * assertions then cover every pool size.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/cancellation.hh"
#include "common/parallel.hh"
#include "dd/sequences.hh"
#include "noise/compiled.hh"
#include "noise/machine.hh"
#include "test_util.hh"
#include "transpile/decompose.hh"
#include "transpile/schedule.hh"
#include "transpile/transpiler.hh"
#include "workloads/benchmarks.hh"

using namespace adapt;
using namespace adapt::testutil;

namespace
{

std::vector<int>
threadCounts()
{
    std::vector<int> counts = {1, 4};
    const int hw = defaultThreads();
    if (hw != 1 && hw != 4)
        counts.push_back(hw);
    return counts;
}

ScheduledCircuit
compileWorkload(const Circuit &logical, const Device &device)
{
    return transpile(logical, device, device.calibration(0)).schedule;
}

/** Every channel except OU dephasing: crosstalk keeps its static
 *  coherent phases, and no program has per-shot phase slots, so the
 *  grouped replay serves every small dense job. */
NoiseFlags
withoutOu()
{
    NoiseFlags flags = NoiseFlags::all();
    flags.ouDephasing = false;
    return flags;
}

/** The per-shot oracle: the interpreted plan walk. */
Distribution
interpreted(const NoisyMachine &machine, const ScheduledCircuit &sched,
            int shots, uint64_t seed)
{
    return machine.run(sched, shots, seed, 1, BackendKind::Dense,
                       ExecMode::Interpreted);
}

/**
 * Assert the default compiled run reproduces the interpreted
 * reference bit for bit at several thread counts; returns the shots
 * the grouped path served (denseStats.shots, equal at every count).
 */
int64_t
expectCompiledMatchesInterpreted(const NoisyMachine &machine,
                                 const ScheduledCircuit &sched,
                                 int shots, uint64_t seed)
{
    const PreparedCircuit prepared =
        machine.prepare(sched, BackendKind::Dense);
    const Distribution reference =
        interpreted(machine, sched, shots, seed);
    int64_t grouped_shots = -1;
    for (int threads : threadCounts()) {
        const RunOutcome out = machine.runPartial(
            prepared, shots, seed, threads, RunControl{});
        EXPECT_TRUE(distributionsIdentical(reference, out.dist))
            << "threads=" << threads;
        if (grouped_shots >= 0) {
            EXPECT_EQ(out.denseStats.shots, grouped_shots)
                << "threads=" << threads;
        }
        grouped_shots = out.denseStats.shots;
    }
    return grouped_shots;
}

} // namespace

// ------------------------------------------------- identity corpus

TEST(DenseBatch, GroupedMatchesPerShotOnNonCliffordWorkload)
{
    const Device device = Device::ibmqRome();
    const ScheduledCircuit sched =
        compileWorkload(makeQaoa(5, QaoaGraph::A), device);
    const NoisyMachine grouped(device, 0, withoutOu());
    for (uint64_t seed : {3ULL, 11ULL, 31337ULL}) {
        EXPECT_EQ(
            expectCompiledMatchesInterpreted(grouped, sched, 1200, seed),
            1200);
    }
    // Full noise (OU included) takes the per-shot replay: same lock.
    const NoisyMachine full(device);
    expectCompiledMatchesInterpreted(full, sched, 1200, 3);
}

TEST(DenseBatch, GroupedMatchesPerShotPerNoiseChannel)
{
    // One flag at a time (plus all-off, all-on, twirl): every event
    // kind crosses the compiled path — gate-error splices,
    // measurement word flips, T1 divergence splits, static crosstalk
    // phases, OU phases on the per-shot replay, OU twirls on the
    // grouped one.
    std::vector<NoiseFlags> configs;
    configs.push_back(NoiseFlags::none());
    configs.push_back(NoiseFlags::all());
    for (int channel = 0; channel < 6; channel++) {
        NoiseFlags flags = NoiseFlags::none();
        flags.gateErrors = channel == 0;
        flags.measurementErrors = channel == 1;
        flags.t1Damping = channel == 2;
        flags.whiteDephasing = channel == 3;
        flags.ouDephasing = channel == 4;
        flags.crosstalk = channel == 5;
        configs.push_back(flags);
    }
    NoiseFlags twirled = NoiseFlags::all();
    twirled.twirlCoherent = true;
    configs.push_back(twirled);

    const Device device = Device::ibmqRome();
    const ScheduledCircuit sched =
        compileWorkload(makeQft(4, QftState::B), device);
    for (size_t i = 0; i < configs.size(); i++) {
        const NoisyMachine machine(device, 0, configs[i]);
        const PreparedCircuit prepared =
            machine.prepare(sched, BackendKind::Dense);
        EXPECT_TRUE(distributionsIdentical(
            interpreted(machine, sched, 500, 29 + i),
            machine.run(prepared, 500, 29 + i, 4)))
            << "config " << i;
    }
}

TEST(DenseBatch, GroupedMatchesPerShotOnDDPaddedWorkload)
{
    // The decoy-scale shape grouping optimizes for: DD-padded pulse
    // trains where most shots resolve to the no-error signature and
    // the rest splice mid-train.  Identity must survive both.
    NoiseFlags flags = NoiseFlags::none();
    flags.gateErrors = true;
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0, flags);
    const ScheduledCircuit padded =
        insertDDAll(compileWorkload(makeQaoa(4, QaoaGraph::B), device),
                    machine.calibration(), DDOptions{});
    ASSERT_GT(ddPulseCount(padded), 0);
    EXPECT_EQ(expectCompiledMatchesInterpreted(machine, padded, 1500, 17),
              1500);
}

TEST(DenseBatch, BatchVsSerialBitIdentical)
{
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0, withoutOu());
    std::vector<PreparedCircuit> prepared;
    std::vector<uint64_t> seeds;
    for (int v = 0; v < 5; v++) {
        prepared.push_back(machine.prepare(compileWorkload(
            makeQaoa(4, v % 2 ? QaoaGraph::A : QaoaGraph::B, 7 + v),
            device)));
        seeds.push_back(101 + static_cast<uint64_t>(v) * 7919);
    }
    const int shots = 3 * kShotBlock + 17; // straddle block boundaries
    const std::vector<Distribution> batch = machine.runBatch(
        std::span<const PreparedCircuit>(prepared), shots, seeds,
        /*threads=*/5);
    ASSERT_EQ(batch.size(), prepared.size());
    for (size_t i = 0; i < prepared.size(); i++) {
        EXPECT_TRUE(distributionsIdentical(
            batch[i], machine.run(prepared[i], shots, seeds[i], 1)))
            << "job " << i;
    }
}

// ----------------------------------------------------- cancellation

TEST(DenseBatch, CancellationReturnsExactBlockPrefix)
{
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0, withoutOu());
    const ScheduledCircuit sched =
        compileWorkload(makeQaoa(5, QaoaGraph::A), device);
    const PreparedCircuit prepared = machine.prepare(sched);
    constexpr int kShots = 4000;

    for (int threads : {1, 3}) {
        CancellationSource source;
        RunControl ctl;
        ctl.token = source.token();
        ctl.progress = [&](int64_t shots_done) {
            if (shots_done >= kShots / 4)
                source.cancel();
        };
        const RunOutcome out =
            machine.runPartial(prepared, kShots, 9, threads, ctl);
        ASSERT_TRUE(out.partial) << "threads=" << threads;
        EXPECT_EQ(out.cause, StopCause::Cancelled);
        EXPECT_GT(out.shotsDone, 0);
        EXPECT_LT(out.shotsDone, kShots);
        EXPECT_GT(out.denseStats.shots, 0);
        // The committed prefix replays exactly as a shorter grouped
        // run — and as a shorter interpreted run (the block split
        // moves, the outcomes may not).
        const auto done = static_cast<int>(out.shotsDone);
        EXPECT_TRUE(distributionsIdentical(
            out.dist, machine.run(prepared, done, 9)))
            << "threads=" << threads;
        EXPECT_TRUE(distributionsIdentical(
            out.dist, interpreted(machine, sched, done, 9)))
            << "threads=" << threads;
    }
}

// ------------------------------------------- dispatch and occupancy

TEST(DenseBatch, WideRegistersStayOnPerShotPath)
{
    // Above kMaxBatchQubits no reference checkpoints are kept; the
    // per-shot replay serves the job and the stats stay zero.
    const int n = BatchShotReplayer::kMaxBatchQubits + 1;
    const Device device =
        Device::synthetic(Topology::linear(n), 77);
    const NoisyMachine machine(device, 0, NoiseFlags::none());
    Circuit c(n);
    c.h(0);
    c.t(0);
    for (int q = 0; q + 1 < n; q++)
        c.cx(q, q + 1);
    c.measureAll();
    const ScheduledCircuit sched =
        schedule(decompose(c), device.topology(),
                 device.calibration(0), ScheduleMode::Alap);
    const PreparedCircuit prepared =
        machine.prepare(sched, BackendKind::Dense);
    const RunOutcome out =
        machine.runPartial(prepared, 130, 3, 1, RunControl{});
    EXPECT_EQ(out.denseStats.shots, 0);
    EXPECT_TRUE(distributionsIdentical(
        out.dist, interpreted(machine, sched, 130, 3)));
}

TEST(DenseBatch, OuPhaseProgramsStayOnPerShotPath)
{
    // OU dephasing gives every shot its own coherent phases, so no
    // two shots share an operator sequence: the per-shot replay
    // serves the job and the stats stay zero.
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device); // NoiseFlags::all(), incl. OU
    const ScheduledCircuit sched =
        compileWorkload(makeQaoa(4, QaoaGraph::A), device);
    const PreparedCircuit prepared =
        machine.prepare(sched, BackendKind::Dense);
    const RunOutcome out =
        machine.runPartial(prepared, 300, 5, 1, RunControl{});
    EXPECT_EQ(out.denseStats.shots, 0);
    EXPECT_EQ(out.denseStats.blocks, 0);
    EXPECT_TRUE(distributionsIdentical(
        out.dist, interpreted(machine, sched, 300, 5)));
}

TEST(DenseBatch, OccupancyCountersAreConsistent)
{
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0, withoutOu());
    const PreparedCircuit prepared = machine.prepare(
        compileWorkload(makeQaoa(5, QaoaGraph::A), device));
    const int shots = 5 * kShotBlock + 7;
    const RunOutcome out =
        machine.runPartial(prepared, shots, 5, 1, RunControl{});
    const DenseBatchStats &s = out.denseStats;
    EXPECT_EQ(s.shots, shots);
    // Serial run: one draw block per kShotBlock window.
    EXPECT_EQ(s.blocks, (shots + kShotBlock - 1) / kShotBlock);
    EXPECT_GE(s.groups, s.blocks);
    EXPECT_LE(s.groups, s.shots);
    EXPECT_LE(s.batchedShots, s.shots);
    EXPECT_LE(s.noErrorShots, s.shots);
    // With every other channel enabled the per-shot event rate is
    // high, but a healthy fraction must still group and share its
    // prefix (the lightly-noised regimes the path optimizes for group
    // far more — see bench_shot_throughput's occupancy metrics).
    EXPECT_GT(s.batchedShots, s.shots / 4);
    EXPECT_GT(s.noErrorShots, 0);
}

TEST(DenseBatch, StatsMergeAcrossThreadChunks)
{
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0, withoutOu());
    const PreparedCircuit prepared = machine.prepare(
        compileWorkload(makeQaoa(5, QaoaGraph::A), device));
    const int shots = 8 * kShotBlock;
    const RunOutcome serial =
        machine.runPartial(prepared, shots, 5, 1, RunControl{});
    const RunOutcome threaded =
        machine.runPartial(prepared, shots, 5, 4, RunControl{});
    // Chunk boundaries may split draw blocks, but every shot is
    // accounted for exactly once and the outcome is identical.
    EXPECT_EQ(serial.denseStats.shots, shots);
    EXPECT_EQ(threaded.denseStats.shots, shots);
    EXPECT_GE(threaded.denseStats.blocks, serial.denseStats.blocks);
    EXPECT_TRUE(
        distributionsIdentical(serial.dist, threaded.dist));
}
