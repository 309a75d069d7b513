/**
 * @file
 * Dynamic-circuit differential fuzzing corpus.
 *
 * PR goal: mid-circuit measurement, classical-bit reuse, active
 * reset, and classically-controlled Clifford gates execute *in* the
 * batch Pauli-frame engine, with superposed-T1 lanes finishing on
 * compiled branch tails.  The locks, in order of rigor:
 *
 *  - a generated corpus (>= kMinCorpus circuits — the floor is
 *    asserted so a silent corpus shrink fails CI) of seeded random
 *    dynamic circuits, differential against the per-shot tableau
 *    oracle (ExecMode::Interpreted) with a per-circuit TVD bound and
 *    a much tighter corpus-mean bound, and against the dense state
 *    vector three-way on small widths;
 *  - exact structural laws on handcrafted dynamic circuits
 *    (feedback teleportation, reset chains, cross-word-boundary
 *    feedback at 63/64/65 clbits);
 *  - bit-identity of the frame engine against itself across thread
 *    counts and batch-vs-serial, tails included;
 *  - FrameBatchStats invariants: second fires (lanes that leave
 *    their branch tail for the exact tableau) stay rare on DD-padded
 *    decoys, and on a heavy-fire chain they engage and keep the law;
 *  - branch-tail memory: 50- and 100-qubit tail-heavy jobs peak under
 *    64 MB of resident memory (and a 2 GB address-space cap);
 *  - dispatch: conditional non-Pauli gates keep the job off the
 *    frame engine but on the stabilizer backend (interpreted walk).
 *
 * Run under ADAPT_NUM_THREADS=1/4/8 in CI: thread-identity
 * assertions then cover every pool size.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdlib>
#include <vector>

#include "common/logging.hh"
#include "dd/sequences.hh"
#include "noise/machine.hh"
#include "sim/backend.hh"
#include "sim/frame_batch.hh"
#include "test_util.hh"
#include "transpile/decompose.hh"
#include "transpile/schedule.hh"
#include "workloads/benchmarks.hh"

using namespace adapt;
using namespace adapt::testutil;

namespace
{

/** Differential-corpus floor: shrinking below this fails CI. */
constexpr size_t kMinCorpus = 200;

ScheduledCircuit
scheduleLinear(const Device &device, const Circuit &c, bool with_dd)
{
    const Calibration cal = device.calibration(0);
    ScheduledCircuit sched = schedule(decompose(c), device.topology(),
                                      cal, ScheduleMode::Alap);
    if (with_dd)
        sched = insertDDAll(sched, cal, DDOptions{});
    return sched;
}

/**
 * The TVD-checked corpus: a small-width band (dense
 * cross-checkable) and a mid-width band with classical registers
 * decoupled from the qubit count.
 */
std::vector<FuzzSpec>
dynamicCorpus()
{
    std::vector<FuzzSpec> specs;
    uint64_t seed = 100;
    for (int rep = 0; rep < 32; rep++) {
        for (const int w : {2, 3, 4, 5, 6}) {
            FuzzSpec s;
            s.width = w;
            s.depth = 30 + (rep * 7) % 45;
            s.withDd = rep % 3 == 0;
            s.dynamic = true;
            s.seed = seed++;
            specs.push_back(s);
        }
    }
    for (int rep = 0; rep < 12; rep++) {
        for (const int w : {7, 9, 12, 16}) {
            FuzzSpec s;
            s.width = w;
            s.depth = 40 + (rep * 11) % 40;
            s.withDd = rep % 4 == 0;
            s.dynamic = true;
            s.clbits = w;
            s.seed = seed++;
            specs.push_back(s);
        }
    }
    return specs;
}

/** Wide registers straddling the direct-key / fingerprint boundary;
 *  checked for determinism and cross-engine key identity. */
std::vector<FuzzSpec>
wideCorpus()
{
    std::vector<FuzzSpec> specs;
    uint64_t seed = 900;
    for (const int w : {63, 64, 65, 70}) {
        for (int rep = 0; rep < 3; rep++) {
            FuzzSpec s;
            s.width = w;
            s.depth = 50;
            s.dynamic = true;
            s.clbits = w;
            s.seed = seed++;
            specs.push_back(s);
        }
    }
    return specs;
}

constexpr int kCorpusShots = 8000;
constexpr int kShots = 60000;

/**
 * frame_char_100q's tail job at @p n qubits: |+>, a 20 us XY4-padded
 * idle, X-basis readout.  T1 fires on superposed qubits, so most
 * lanes leave the plane pass for a branch tail, and many fire again
 * there and finish on the exact tableau.
 */
ScheduledCircuit
tailIdleExecutable(const Device &device, int n)
{
    Circuit c(n);
    for (QubitId q = 0; q < n; q++) {
        c.h(q);
        c.delay(20000.0, q);
        c.h(q);
    }
    c.measureAll();
    const Calibration cal = device.calibration(0);
    return insertDDAll(schedule(decompose(c), device.topology(), cal,
                                ScheduleMode::Asap),
                       cal, DDOptions{});
}

} // namespace

// ------------------------------------------------ differential corpus

TEST(DynamicCorpus, CorpusFloorHolds)
{
    ASSERT_GE(dynamicCorpus().size(), kMinCorpus)
        << "the differential fuzzing corpus shrank below the CI "
           "floor";
}

TEST(DynamicCorpus, FrameMatchesPerShotOracleAcrossCorpus)
{
    // A fixed TVD tolerance cannot serve every corpus entry: wide
    // dynamic circuits reach supports of 2^10+, where two *exact*
    // samplers of the same law already sit at TVD ~ 0.8 *
    // sqrt(support / shots).  So each circuit calibrates its own
    // floor: a second oracle run at an independent seed gives an
    // oracle-vs-oracle TVD sample, and the frame engine is held to
    // it — per circuit with slack for TVD fluctuation, and in
    // paired aggregate (mean excess over >= 200 circuits), where a
    // systematic engine bias cannot hide but sampling noise cancels.
    const std::vector<FuzzSpec> specs = dynamicCorpus();
    ASSERT_GE(specs.size(), kMinCorpus);
    double excess_sum = 0.0;
    size_t checked = 0;
    for (const FuzzSpec &spec : specs) {
        const Device device = Device::synthetic(
            Topology::linear(spec.width), spec.seed);
        const NoisyMachine machine(device, 0,
                                   NoiseFlags::pauliOnly());
        const ScheduledCircuit sched = scheduleLinear(
            device, CircuitFuzzer(spec).generate(), spec.withDd);
        const PreparedCircuit prepared =
            machine.prepare(sched, BackendKind::Stabilizer);
        ASSERT_TRUE(prepared.frameBatched())
            << "seed " << spec.seed;

        const Distribution batch = machine.run(
            prepared, kCorpusShots, spec.seed, 0, ExecMode::Compiled);
        const Distribution oracle =
            machine.run(prepared, kCorpusShots, spec.seed, 0,
                        ExecMode::Interpreted);
        const Distribution control =
            machine.run(prepared, kCorpusShots, spec.seed + 77777, 0,
                        ExecMode::Interpreted);
        const double engine_tvd = tvDistance(batch, oracle);
        const double floor_tvd = tvDistance(control, oracle);
        // Per-circuit: catches gross semantic divergence (a wrong
        // conditional mask or branch hop shifts macroscopic mass).
        EXPECT_LT(engine_tvd, 1.6 * floor_tvd + 0.05)
            << "width " << spec.width << " depth " << spec.depth
            << " dd " << spec.withDd << " seed " << spec.seed;
        excess_sum += engine_tvd - floor_tvd;
        checked++;

        // Three-way: the dense state vector referees the two
        // stabilizer engines on small widths.
        if (spec.width <= 6 && checked % 8 == 0) {
            const Distribution dense = machine.run(
                sched, kCorpusShots, spec.seed, 0,
                BackendKind::Dense);
            EXPECT_LT(tvDistance(batch, dense),
                      1.6 * floor_tvd + 0.05)
                << "dense disagrees at seed " << spec.seed;
        }
    }
    EXPECT_LT(excess_sum / static_cast<double>(checked), 0.006)
        << "systematic frame-vs-oracle bias across the corpus";
}

TEST(DynamicCorpus, HighShotSpotChecksAtTightTolerance)
{
    // A handful of corpus entries re-run at kShots: tightens the
    // sampling floor enough to catch subtle rate errors the 8k-shot
    // sweep would absorb.
    uint64_t seed = 500;
    for (const int w : {3, 4, 5, 6}) {
        FuzzSpec spec;
        spec.width = w;
        spec.depth = 60;
        spec.withDd = w % 2 == 0;
        spec.dynamic = true;
        spec.seed = seed++;
        const Device device =
            Device::synthetic(Topology::linear(w), spec.seed);
        const NoisyMachine machine(device, 0,
                                   NoiseFlags::pauliOnly());
        const ScheduledCircuit sched = scheduleLinear(
            device, CircuitFuzzer(spec).generate(), spec.withDd);
        const PreparedCircuit prepared =
            machine.prepare(sched, BackendKind::Stabilizer);
        ASSERT_TRUE(prepared.frameBatched());
        EXPECT_LT(
            tvDistance(machine.run(prepared, kShots, spec.seed, 0,
                                   ExecMode::Compiled),
                       machine.run(prepared, kShots, spec.seed, 0,
                                   ExecMode::Interpreted)),
            0.02)
            << "width " << w;
    }
}

// ------------------------------------------------- exact structure

TEST(DynamicExact, FeedbackTeleportationDeliversTheState)
{
    // Teleport |1>: Bell measurement outcomes are fair coins, but the
    // conditional X / Z corrections must make the target bit
    // deterministic — the canonical dynamic-circuit law.
    const Device device = Device::synthetic(Topology::linear(3), 71);
    const NoisyMachine machine(device, 0, NoiseFlags::none());
    Circuit c(3, 3);
    c.x(0); // state to teleport: |1>
    c.h(1);
    c.cx(1, 2);
    c.cx(0, 1);
    c.h(0);
    c.measure(0, 0);
    c.measure(1, 1);
    c.xIf(2, 1);
    c.zIf(2, 0);
    c.measure(2, 2);
    const ScheduledCircuit sched = scheduleLinear(device, c, false);

    const PreparedCircuit prepared =
        machine.prepare(sched, BackendKind::Stabilizer);
    ASSERT_TRUE(prepared.frameBatched());
    for (const ExecMode mode :
         {ExecMode::Compiled, ExecMode::Interpreted}) {
        const Distribution dist =
            machine.run(prepared, 20000, 7, 0, mode);
        ASSERT_EQ(dist.support(), 4u);
        for (const auto &[key, prob] : dist.probabilities()) {
            EXPECT_EQ(key >> 2 & 1, 1u)
                << "teleported bit wrong in outcome " << key;
            EXPECT_NEAR(prob, 0.25, 0.02);
        }
    }
    const Distribution dense =
        machine.run(sched, 20000, 7, 0, BackendKind::Dense);
    for (const auto &[key, prob] : dense.probabilities())
        EXPECT_EQ(key >> 2 & 1, 1u);
}

TEST(DynamicExact, ResetRejoinsBothBranchesDeterministically)
{
    // |1> and |+> both reset to |0>: the terminal readout is a
    // one-point law on every engine, with no sampling tolerance.
    const Device device = Device::synthetic(Topology::linear(2), 72);
    const NoisyMachine machine(device, 0, NoiseFlags::none());
    Circuit c(2, 2);
    c.x(0);   // deterministic |1>
    c.h(1);   // superposed: reset must collapse AND correct
    c.reset(0);
    c.reset(1);
    c.measure(0, 0);
    c.measure(1, 1);
    const ScheduledCircuit sched = scheduleLinear(device, c, false);

    const PreparedCircuit prepared =
        machine.prepare(sched, BackendKind::Stabilizer);
    ASSERT_TRUE(prepared.frameBatched());
    const Distribution batch =
        machine.run(prepared, 4096, 3, 0, ExecMode::Compiled);
    EXPECT_EQ(batch.support(), 1u);
    EXPECT_NEAR(batch.probability(0b00), 1.0, 1e-12);
    EXPECT_TRUE(distributionsIdentical(
        batch, machine.run(prepared, 4096, 3, 0,
                           ExecMode::Interpreted)));
    EXPECT_TRUE(distributionsIdentical(
        batch,
        machine.run(sched, 4096, 3, 0, BackendKind::Dense)));
}

TEST(DynamicExact, FeedbackAcrossClassicalWordBoundaries)
{
    // A coin recorded at the top clbit drives a conditional X whose
    // outcome lands at clbit 0: bit(n-1) == bit(0) in every shot.
    // n = 63 / 64 / 65 straddles the direct-key / fingerprint
    // switch; cross-engine key equality proves the bitstring ->
    // key mapping is engine-independent either side of it.
    for (const int n : {63, 64, 65}) {
        const Device device =
            Device::synthetic(Topology::linear(2), 73);
        const NoisyMachine machine(device, 0, NoiseFlags::none());
        Circuit c(2, n);
        c.h(0);
        c.measure(0, n - 1);
        c.xIf(1, n - 1);
        c.measure(1, 0);
        const ScheduledCircuit sched =
            scheduleLinear(device, c, false);
        const PreparedCircuit prepared =
            machine.prepare(sched, BackendKind::Stabilizer);
        ASSERT_TRUE(prepared.frameBatched());

        const Distribution batch =
            machine.run(prepared, 20000, 5, 0, ExecMode::Compiled);
        const Distribution pershot =
            machine.run(prepared, 20000, 5, 0,
                        ExecMode::Interpreted);
        ASSERT_EQ(batch.support(), 2u) << "clbits " << n;
        for (const auto &[key, prob] : batch.probabilities()) {
            EXPECT_NEAR(prob, 0.5, 0.02) << "clbits " << n;
            EXPECT_GT(pershot.probability(key), 0.4)
                << "key mismatch across engines at " << n
                << " clbits";
            if (n <= 64) {
                EXPECT_EQ(key >> (n - 1) & 1, key & 1)
                    << "feedback bit decoupled at " << n
                    << " clbits";
            }
        }
    }
}

// --------------------------------------------------- determinism

TEST(DynamicDeterminism, BitIdenticalAcrossThreadCounts)
{
    std::vector<FuzzSpec> specs = wideCorpus();
    const std::vector<FuzzSpec> corpus = dynamicCorpus();
    for (size_t i = 0; i < corpus.size(); i += 40)
        specs.push_back(corpus[i]);

    const int shots = 5 * kFrameLanes + 17;
    for (const FuzzSpec &spec : specs) {
        const Device device = Device::synthetic(
            Topology::linear(spec.width), spec.seed);
        const NoisyMachine machine(device, 0,
                                   NoiseFlags::pauliOnly());
        const ScheduledCircuit sched = scheduleLinear(
            device, CircuitFuzzer(spec).generate(), spec.withDd);
        const PreparedCircuit prepared =
            machine.prepare(sched, BackendKind::Stabilizer);
        ASSERT_TRUE(prepared.frameBatched());
        const Distribution serial =
            machine.run(prepared, shots, spec.seed, 1);
        for (const int threads : {4, 7, 0}) {
            EXPECT_TRUE(distributionsIdentical(
                serial,
                machine.run(prepared, shots, spec.seed, threads)))
                << "width " << spec.width << " seed " << spec.seed
                << " threads " << threads;
        }
    }
}

TEST(DynamicDeterminism, BatchVsSerialBitIdentical)
{
    const Device device = Device::synthetic(Topology::linear(5), 81);
    const NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    std::vector<PreparedCircuit> prepared;
    std::vector<uint64_t> seeds;
    for (uint64_t s = 1; s <= 4; s++) {
        FuzzSpec spec;
        spec.width = 5;
        spec.depth = 50 + static_cast<int>(s);
        spec.withDd = s % 2 == 0;
        spec.dynamic = true;
        spec.seed = 80 + s;
        prepared.push_back(machine.prepare(
            scheduleLinear(device, CircuitFuzzer(spec).generate(),
                           spec.withDd),
            BackendKind::Stabilizer));
        seeds.push_back(700 + s);
    }

    const int shots = kFrameLanes + 100;
    const std::vector<Distribution> batched =
        machine.runBatch(std::span<const PreparedCircuit>(prepared),
                         shots, seeds, /*threads=*/5);
    ASSERT_EQ(batched.size(), prepared.size());
    for (size_t i = 0; i < prepared.size(); i++) {
        EXPECT_TRUE(distributionsIdentical(
            batched[i],
            machine.run(prepared[i], shots, seeds[i], 1)))
            << "job " << i;
    }
}

TEST(DynamicDeterminism, TailsAtWidthBitIdentical)
{
    // Tails of twenty qubits' checkpoints, and lanes that fire again
    // inside them.  Every run prepares afresh, so the threaded and
    // batched runs compile their tails concurrently.
    const Device device = Device::synthetic(Topology::grid(10, 10));
    const NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    const ScheduledCircuit sched = tailIdleExecutable(device, 20);
    const auto prepare = [&] {
        return machine.prepare(sched, BackendKind::Stabilizer);
    };
    const int shots = 5 * kFrameLanes + 17;
    const PreparedCircuit job = prepare();
    ASSERT_TRUE(job.frameBatched());
    const RunOutcome serial =
        machine.runPartial(job, shots, 31, 1, RunControl{});
    EXPECT_EQ(serial.frameStats.maxTailDepth, 2);
    EXPECT_GT(job.compiledTails(), 0u);

    const RunOutcome threaded =
        machine.runPartial(prepare(), shots, 31, 7, RunControl{});
    EXPECT_TRUE(distributionsIdentical(serial.dist, threaded.dist));
    EXPECT_EQ(serial.frameStats.tailShots, threaded.frameStats.tailShots);
    EXPECT_EQ(serial.frameStats.deferredShots,
              threaded.frameStats.deferredShots);
    EXPECT_EQ(serial.frameStats.maxTailDepth,
              threaded.frameStats.maxTailDepth);

    const std::vector<PreparedCircuit> jobs = {prepare(), prepare()};
    const std::vector<uint64_t> seeds = {31, 32};
    const std::vector<Distribution> batched = machine.runBatch(
        std::span<const PreparedCircuit>(jobs), shots, seeds,
        /*threads=*/5);
    ASSERT_EQ(batched.size(), jobs.size());
    EXPECT_TRUE(distributionsIdentical(batched[0], serial.dist));
    EXPECT_TRUE(distributionsIdentical(batched[1],
                                       machine.run(job, shots, 32, 1)));
}

// ----------------------------------------------- branch-tail stats

namespace
{

/** A chain of re-superposed long idles: every T1 checkpoint sees a
 *  reference at population 1/2, so jump lanes fire often, and often
 *  fire again inside their tails. */
ScheduledCircuit
heavyFireExecutable(const Device &device)
{
    Circuit c(2);
    for (int k = 0; k < 6; k++) {
        c.h(0);
        c.delay(40000.0, 0);
    }
    c.measureAll();
    return scheduleLinear(device, c, false);
}

} // namespace

TEST(DynamicTailStats, DecoyCorpusFiresTwiceRarely)
{
    // DD-padded decoys are the hot path of the ADAPT search: fired
    // lanes finish in-frame on their branch tails, and the few that
    // fire a second time (1.5-3.4% on these three) leave the tail for
    // the exact tableau.
    uint64_t seed = 600;
    for (const int w : {3, 4, 5}) {
        FuzzSpec spec;
        spec.width = w;
        spec.depth = 50;
        spec.withDd = true;
        spec.seed = seed++;
        const Device device =
            Device::synthetic(Topology::linear(w), spec.seed);
        const NoisyMachine machine(device, 0,
                                   NoiseFlags::pauliOnly());
        const ScheduledCircuit sched = scheduleLinear(
            device, CircuitFuzzer(spec).generate(), true);
        const PreparedCircuit prepared =
            machine.prepare(sched, BackendKind::Stabilizer);
        ASSERT_TRUE(prepared.frameBatched());
        const RunOutcome out = machine.runPartial(
            prepared, 20000, spec.seed, 0, RunControl{});
        EXPECT_FALSE(out.partial);
        const int64_t tails = out.frameStats.tailShots;
        const int64_t twice = out.frameStats.deferredShots;
        EXPECT_GT(tails, 0) << "width " << w << ": no lane rode a tail";
        EXPECT_LE(twice * 20, tails + twice)
            << "width " << w << ": over 5% of fired lanes fired twice";
    }

    // And on a decoy shaped to fire constantly, tails and second
    // fires must both engage.
    const Device device = Device::synthetic(Topology::linear(2), 74);
    NoiseFlags flags = NoiseFlags::none();
    flags.t1Damping = true;
    const NoisyMachine machine(device, 0, flags);
    const PreparedCircuit prepared = machine.prepare(
        heavyFireExecutable(device), BackendKind::Stabilizer);
    ASSERT_TRUE(prepared.frameBatched());
    const RunOutcome out =
        machine.runPartial(prepared, kShots, 9, 0, RunControl{});
    EXPECT_GT(out.frameStats.tailShots, 0);
    EXPECT_GT(out.frameStats.deferredShots, 0);
    EXPECT_EQ(out.frameStats.maxTailDepth, 2);
}

TEST(DynamicTailStats, DepthCapBoundsRecursionAndStaysCorrect)
{
    const Device device = Device::synthetic(Topology::linear(2), 75);
    NoiseFlags flags = NoiseFlags::none();
    flags.t1Damping = true;
    const NoisyMachine machine(device, 0, flags);
    const ScheduledCircuit sched = heavyFireExecutable(device);

    const PreparedCircuit prepared =
        machine.prepare(sched, BackendKind::Stabilizer);
    ASSERT_TRUE(prepared.frameBatched());
    const RunOutcome out =
        machine.runPartial(prepared, kShots, 11, 0, RunControl{});
    // Second fires exist at this rate, so the one-level cap must
    // actually engage — and bound every lane at two fires.
    EXPECT_GT(out.frameStats.deferredShots, 0);
    EXPECT_LE(out.frameStats.maxTailDepth, 2);
    EXPECT_LT(tvDistance(out.dist, machine.run(prepared, kShots, 11, 0,
                                               ExecMode::Interpreted)),
              0.015);

    // Lanes that fire twice keep the determinism contract too.
    EXPECT_TRUE(distributionsIdentical(
        machine.run(prepared, 5 * kFrameLanes + 17, 11, 1),
        machine.run(prepared, 5 * kFrameLanes + 17, 11, 7)));
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ADAPT_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ADAPT_TEST_SANITIZED 1
#endif
#endif

namespace
{

/** Run the 50- and then the 100-qubit tail shape (1,024 shots, 2
 *  threads each) under a 2 GB address-space cap; exits 0 iff both
 *  complete with fired lanes and the process peak RSS stays at or
 *  under 64 MB. */
[[noreturn]] void
runWideTailJobsUnderCap()
{
    const rlim_t cap = rlim_t{2} << 30;
    const rlimit limit{cap, cap};
    if (setrlimit(RLIMIT_AS, &limit) != 0)
        std::_Exit(2);
    const Device device = Device::synthetic(Topology::grid(10, 10));
    const NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    for (const int n : {50, 100}) {
        const PreparedCircuit prepared = machine.prepare(
            tailIdleExecutable(device, n), BackendKind::Stabilizer);
        const RunOutcome out =
            machine.runPartial(prepared, 1024, 7, 2, RunControl{});
        if (out.frameStats.tailShots + out.frameStats.deferredShots == 0 ||
            out.dist.totalSamples() != 1024)
            std::_Exit(1);
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    std::_Exit(usage.ru_maxrss <= 64 * 1024 ? 0 : 3); // KB on Linux
}

} // namespace

TEST(DynamicTailMemory, WideTailShapesPeakUnder64Megabytes)
{
#ifdef ADAPT_TEST_SANITIZED
    GTEST_SKIP() << "sanitizer shadow memory exceeds the address-space "
                    "cap";
#endif
    // Tails must stay overlays on the root, one level deep: a tail
    // that copies its op suffix exhausts the address-space cap, and
    // compiling tails of tails at 100 qubits (about 24k of them)
    // passes the RSS bound.  The capped child re-executes the test
    // binary (threadsafe style), so it forks no live pool.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(runWideTailJobsUnderCap(), ::testing::ExitedWithCode(0),
                "");
}

// -------------------------------------------------------- dispatch

TEST(DynamicDispatch, ConditionalNonPauliStaysOffTheFrameEngine)
{
    // A conditional S is Clifford but not Pauli: the job must stay
    // on the stabilizer backend, skip the frame program, and run the
    // interpreted walk under ExecMode::Compiled — identically to an
    // explicit Interpreted run.
    const Device device = Device::synthetic(Topology::linear(2), 77);
    const NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    Circuit c(2, 2);
    c.h(0);
    c.measure(0, 0);
    c.addIf({GateType::S, {1}}, 0);
    c.h(1);
    c.measure(1, 1);
    const ScheduledCircuit sched = scheduleLinear(device, c, false);

    EXPECT_EQ(machine.chooseBackend(sched), BackendKind::Stabilizer);
    const PreparedCircuit prepared = machine.prepare(sched);
    EXPECT_EQ(prepared.backend(), BackendKind::Stabilizer);
    EXPECT_FALSE(prepared.frameBatched());
    EXPECT_TRUE(distributionsIdentical(
        machine.run(prepared, 6000, 3, 0, ExecMode::Compiled),
        machine.run(prepared, 6000, 3, 0, ExecMode::Interpreted)));
    // And it still samples the dense law.
    EXPECT_LT(
        tvDistance(machine.run(prepared, kShots, 3, 0),
                   machine.run(sched, kShots, 3, 0,
                               BackendKind::Dense)),
        0.02);
}

TEST(DynamicDispatch, ConditionalPauliJobsBatchByDefault)
{
    const Device device = Device::synthetic(Topology::linear(3), 78);
    const NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    FuzzSpec spec;
    spec.width = 3;
    spec.depth = 50;
    spec.dynamic = true;
    spec.seed = 78;
    const ScheduledCircuit sched = scheduleLinear(
        device, CircuitFuzzer(spec).generate(), false);
    EXPECT_EQ(machine.chooseBackend(sched), BackendKind::Stabilizer);
    EXPECT_TRUE(machine.prepare(sched).frameBatched());
}

// ------------------------------------------- syndrome extraction

TEST(DynamicSyndrome, WorkloadBatchesAndMatchesOracle)
{
    const Circuit c = makeSyndromeExtraction(5, 3);
    EXPECT_EQ(c.numQubits(), 9);
    EXPECT_EQ(c.numClbits(), 9);
    const Device device = Device::synthetic(Topology::linear(9), 79);
    const NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    const ScheduledCircuit sched = scheduleLinear(device, c, false);
    const PreparedCircuit prepared =
        machine.prepare(sched, BackendKind::Stabilizer);
    ASSERT_TRUE(prepared.frameBatched());

    const RunOutcome out =
        machine.runPartial(prepared, kShots, 17, 0, RunControl{});
    EXPECT_EQ(out.frameStats.deferredShots, 0);
    // Noisy feedback spreads the law over hundreds of keys, so
    // calibrate the sampling floor with a second oracle run at an
    // independent seed (same technique as the corpus sweep).
    const Distribution oracle = machine.run(
        prepared, kShots, 17, 0, ExecMode::Interpreted);
    const Distribution control = machine.run(
        prepared, kShots, 17 + 77777, 0, ExecMode::Interpreted);
    EXPECT_LT(tvDistance(out.dist, oracle),
              1.6 * tvDistance(control, oracle) + 0.01);
}

TEST(DynamicSyndrome, NoiseFreeRoundsAreSilent)
{
    // Without noise every syndrome is 0, no feedback fires, and the
    // logical GHZ survives: two equiprobable data readouts with
    // clean syndrome bits.
    const Circuit c = makeSyndromeExtraction(5, 3);
    const Device device = Device::synthetic(Topology::linear(9), 80);
    const NoisyMachine machine(device, 0, NoiseFlags::none());
    const ScheduledCircuit sched = scheduleLinear(device, c, false);
    const Distribution dist = machine.run(
        sched, 20000, 19, 0, BackendKind::Stabilizer,
        ExecMode::Compiled);
    ASSERT_EQ(dist.support(), 2u);
    EXPECT_NEAR(dist.probability(0b000000000), 0.5, 0.02);
    EXPECT_NEAR(dist.probability(0b111110000), 0.5, 0.02);
}
