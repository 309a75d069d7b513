/**
 * @file
 * Batched Pauli-frame engine equivalence suite.
 *
 * The stabilizer path now has two executables per job: the per-shot
 * Aaronson-Gottesman tableau (ExecMode::Interpreted, the reference
 * semantics) and the bit-packed batch frame engine
 * (ExecMode::Compiled, the default).  The two consume different RNG
 * streams by design, so the locks are:
 *  - statistical equivalence on a randomized Clifford corpus (TVD
 *    against the per-shot reference, chi-squared against the ideal
 *    law on noise-free jobs),
 *  - exact equality where the law is deterministic,
 *  - bit-identity of the frame engine against itself across thread
 *    counts and batch-vs-serial (the PR's determinism contract),
 *  - dispatch rules (Compiled -> frame program, OU jobs fall back,
 *    Interpreted stays per-shot),
 *  - >64-clbit jobs producing identical OutcomePacker fingerprints
 *    on both engines.
 *
 * Run under ADAPT_NUM_THREADS=1/4/8 in CI: thread-identity
 * assertions then cover every pool size.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/logging.hh"
#include "dd/sequences.hh"
#include "noise/machine.hh"
#include "sim/backend.hh"
#include "sim/frame_batch.hh"
#include "sim/statevector.hh"
#include "test_util.hh"
#include "transpile/decompose.hh"
#include "transpile/schedule.hh"

using namespace adapt;
using namespace adapt::testutil;

namespace
{

struct CorpusSpec
{
    int width;
    int depth;
    bool withDd;
    uint64_t seed;
};

/** Random Clifford executable with idle windows (same generator
 *  family as test_backend_equivalence, distinct seeds). */
Circuit
randomCliffordExecutable(const CorpusSpec &spec)
{
    Rng rng(spec.seed * 6007 + 29);
    Circuit c(spec.width);
    for (int layer = 0; layer < spec.depth; layer++) {
        const auto q = static_cast<QubitId>(
            rng.uniformInt(static_cast<uint64_t>(spec.width)));
        switch (rng.uniformInt(9)) {
          case 0: c.h(q); break;
          case 1: c.s(q); break;
          case 2: c.sdg(q); break;
          case 3: c.x(q); break;
          case 4: c.sx(q); break;
          case 5: c.rz(kPi / 2.0, q); break;
          case 6: c.delay(400.0 + 200.0 * rng.uniform(), q); break;
          default: {
            if (spec.width < 2) {
                c.z(q);
                break;
            }
            const QubitId a = q;
            const QubitId b = a + 1 < spec.width ? a + 1 : a - 1;
            c.cx(a, b);
            break;
          }
        }
    }
    c.measureAll();
    return c;
}

/** x on qubit 0, H on the last qubit, a CX ladder back down, and
 *  every qubit measured: noise-free, two equiprobable bitstrings. */
Circuit
ladderCircuit(int n)
{
    Circuit c(n);
    c.x(0);
    c.h(n - 1);
    for (int q = n - 1; q > 0; q--)
        c.cx(q, q - 1);
    c.measureAll();
    return c;
}

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

constexpr int kShots = 60000;

} // namespace

// ----------------------------------------------------- corpus suite

class FrameBatchEquivalence
    : public ::testing::TestWithParam<CorpusSpec>
{
};

TEST_P(FrameBatchEquivalence, MatchesPerShotReferenceWithinTvd)
{
    const CorpusSpec spec = GetParam();
    const Device device =
        Device::synthetic(Topology::linear(spec.width), spec.seed);
    const NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    const ScheduledCircuit sched = scheduleLinear(
        device, randomCliffordExecutable(spec), spec.withDd);

    const PreparedCircuit prepared =
        machine.prepare(sched, BackendKind::Stabilizer);
    ASSERT_TRUE(prepared.frameBatched());
    const Distribution batch = machine.run(prepared, kShots, spec.seed,
                                           0, ExecMode::Compiled);
    const Distribution pershot = machine.run(
        prepared, kShots, spec.seed, 0, ExecMode::Interpreted);
    EXPECT_LT(tvDistance(batch, pershot), 0.02)
        << "width " << spec.width << " depth " << spec.depth << " dd "
        << spec.withDd << " seed " << spec.seed;
}

TEST_P(FrameBatchEquivalence, NoiseFreeMatchesIdealLaw)
{
    const CorpusSpec spec = GetParam();
    const Device device =
        Device::synthetic(Topology::linear(spec.width), spec.seed);
    const NoisyMachine machine(device, 0, NoiseFlags::none());
    const Circuit c = randomCliffordExecutable(spec);
    const ScheduledCircuit sched =
        scheduleLinear(device, c, spec.withDd);

    const Distribution ideal = idealDistribution(decompose(c));
    EXPECT_TRUE(distributionsMatch(
        machine.run(sched, kShots, spec.seed, 0,
                    BackendKind::Stabilizer, ExecMode::Compiled),
        ideal));
}

TEST_P(FrameBatchEquivalence, BitIdenticalAcrossThreadCounts)
{
    const CorpusSpec spec = GetParam();
    const Device device =
        Device::synthetic(Topology::linear(spec.width), spec.seed);
    const NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    const ScheduledCircuit sched = scheduleLinear(
        device, randomCliffordExecutable(spec), spec.withDd);

    // 5 blocks' worth of shots so chunk boundaries actually move
    // between thread counts; 0 = the ambient ADAPT_NUM_THREADS (CI
    // re-runs this binary at 1/4/8).
    const int shots = 5 * kFrameLanes + 17;
    const Distribution serial =
        machine.run(sched, shots, spec.seed, 1);
    for (const int threads : {2, 4, 7, 0}) {
        EXPECT_TRUE(distributionsIdentical(
            serial, machine.run(sched, shots, spec.seed, threads)))
            << "threads " << threads;
    }
}

INSTANTIATE_TEST_SUITE_P(
    RandomCliffordCorpus, FrameBatchEquivalence,
    ::testing::Values(CorpusSpec{2, 30, false, 21},
                      CorpusSpec{3, 40, true, 22},
                      CorpusSpec{4, 60, false, 23},
                      CorpusSpec{4, 60, true, 24},
                      CorpusSpec{5, 80, true, 25},
                      CorpusSpec{5, 50, false, 26}));

// ------------------------------------------------- exact-law checks

TEST(FrameBatch, DeterministicNoiseFreeCircuitIsExact)
{
    const Device device = Device::synthetic(Topology::linear(4), 31);
    const NoisyMachine machine(device, 0, NoiseFlags::none());
    Circuit c(4);
    c.x(0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.x(2);
    c.cx(2, 3);
    c.measureAll();
    const ScheduledCircuit sched = scheduleLinear(device, c, false);

    const Distribution batch = machine.run(
        sched, 2048, 1, 0, BackendKind::Stabilizer,
        ExecMode::Compiled);
    EXPECT_EQ(batch.support(), 1u);
    EXPECT_NEAR(batch.probability(0b0011), 1.0, 1e-12);
    EXPECT_TRUE(distributionsIdentical(
        batch, machine.run(sched, 2048, 1, 0, BackendKind::Stabilizer,
                           ExecMode::Interpreted)));
}

TEST(FrameBatch, RandomMeasurementsStayCorrelatedAcrossLanes)
{
    // GHZ: every shot's register must be all-0 or all-1 — the
    // branch-flip Pauli has to hop *every* qubit of a lane at the
    // first (random) measurement, and the remaining deterministic
    // measurements must read the hopped reference.
    const Device device = Device::synthetic(Topology::linear(5), 32);
    const NoisyMachine machine(device, 0, NoiseFlags::none());
    Circuit c(5);
    c.h(0);
    for (int q = 0; q + 1 < 5; q++)
        c.cx(q, q + 1);
    c.measureAll();
    const ScheduledCircuit sched = scheduleLinear(device, c, false);

    const Distribution batch = machine.run(
        sched, 40000, 7, 0, BackendKind::Stabilizer,
        ExecMode::Compiled);
    ASSERT_EQ(batch.support(), 2u);
    EXPECT_NEAR(batch.probability(0b00000), 0.5, 0.02);
    EXPECT_NEAR(batch.probability(0b11111), 0.5, 0.02);
}

TEST(FrameBatch, RepeatedMeasurementOfOneQubitReRandomizes)
{
    // H, measure, H, measure: the two outcomes of one shot must be
    // independent fair coins — per-lane coins may not be reused or
    // leak between measurements of the same qubit.
    const Device device = Device::synthetic(Topology::linear(1), 33);
    const NoisyMachine machine(device, 0, NoiseFlags::none());
    Circuit c(1, 2);
    c.h(0);
    c.measure(0, 0);
    c.h(0);
    c.measure(0, 1);
    const ScheduledCircuit sched = scheduleLinear(device, c, false);

    const Distribution batch = machine.run(
        sched, 40000, 9, 0, BackendKind::Stabilizer,
        ExecMode::Compiled);
    for (const uint64_t outcome : {0b00, 0b01, 0b10, 0b11})
        EXPECT_NEAR(batch.probability(outcome), 0.25, 0.02);
}

TEST(FrameBatch, T1RelaxationTracksReferenceOnDeterministicQubits)
{
    // Characterization shape: |1> prepared, long idle, measured.
    // The reference is deterministic at every T1 checkpoint, so the
    // frame engine's jump handling is exact — the relaxed-population
    // estimate must agree with the per-shot tableau within sampling
    // noise.
    const Device device = Device::synthetic(Topology::linear(2), 34);
    NoiseFlags flags = NoiseFlags::none();
    flags.t1Damping = true;
    const NoisyMachine machine(device, 0, flags);
    Circuit c(2);
    c.x(0);
    c.delay(40000.0, 0);
    c.x(1);
    c.delay(40000.0, 1);
    c.measureAll();
    const ScheduledCircuit sched = scheduleLinear(device, c, false);

    const PreparedCircuit prepared =
        machine.prepare(sched, BackendKind::Stabilizer);
    const Distribution batch =
        machine.run(prepared, kShots, 4, 0, ExecMode::Compiled);
    const Distribution pershot =
        machine.run(prepared, kShots, 4, 0, ExecMode::Interpreted);
    EXPECT_LT(tvDistance(batch, pershot), 0.015);
    // The decay must actually bite (law sanity, not just agreement).
    EXPECT_GT(batch.probability(0b00), 0.005);
}

// ------------------------------------------------------ determinism

TEST(FrameBatch, BatchVsSerialBitIdentical)
{
    const Device device = Device::synthetic(Topology::linear(4), 41);
    const NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    std::vector<ScheduledCircuit> jobs;
    std::vector<PreparedCircuit> prepared;
    std::vector<uint64_t> seeds;
    for (uint64_t s = 1; s <= 6; s++) {
        jobs.push_back(scheduleLinear(
            device,
            randomCliffordExecutable(
                {4, 40 + static_cast<int>(s), s % 2 == 0, 40 + s}),
            s % 2 == 1));
        prepared.push_back(
            machine.prepare(jobs.back(), BackendKind::Stabilizer));
        seeds.push_back(900 + s);
    }

    const int shots = kFrameLanes + 100; // straddle a block boundary
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

TEST(FrameBatch, ShotPrefixIndependentOfTotalShotCount)
{
    // Lane-group seeding: the first 64k-lane groups of a job draw
    // identical streams whatever the total shot count, so a shorter
    // run is a prefix of a longer one in distribution mass.
    const Device device = Device::synthetic(Topology::linear(3), 42);
    const NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    const ScheduledCircuit sched = scheduleLinear(
        device, randomCliffordExecutable({3, 40, false, 43}), false);

    const Distribution small = machine.run(sched, 256, 5, 0);
    const Distribution large = machine.run(sched, 512, 5, 0);
    for (const auto &[outcome, prob] : small.probabilities()) {
        EXPECT_LE(prob * 256.0,
                  large.probability(outcome) * 512.0 + 1e-9)
            << "outcome " << outcome;
    }
}

// --------------------------------------------------------- dispatch

TEST(FrameBatchDispatch, CompiledStabilizerJobsCarryFrameProgram)
{
    const Device device = Device::synthetic(Topology::linear(3), 51);
    const NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    const ScheduledCircuit sched = scheduleLinear(
        device, randomCliffordExecutable({3, 30, false, 51}), false);
    const PreparedCircuit prepared = machine.prepare(sched);
    EXPECT_EQ(prepared.backend(), BackendKind::Stabilizer);
    EXPECT_TRUE(prepared.frameBatched());

    // Dense jobs never carry one.
    const NoisyMachine coherent(device); // OU + crosstalk
    EXPECT_FALSE(coherent.prepare(sched).frameBatched());
}

TEST(FrameBatchDispatch, OuTwirlJobsFallBackToPerShotTableau)
{
    // OU twirl draws a per-shot phase, which the batch engine does
    // not model; the job must stay on the stabilizer backend but
    // interpret.
    const Device device = Device::synthetic(Topology::linear(3), 52);
    NoiseFlags flags = NoiseFlags::all();
    flags.twirlCoherent = true;
    const NoisyMachine machine(device, 0, flags);
    const ScheduledCircuit sched = scheduleLinear(
        device, randomCliffordExecutable({3, 30, false, 52}), false);
    const PreparedCircuit prepared = machine.prepare(sched);
    EXPECT_EQ(prepared.backend(), BackendKind::Stabilizer);
    EXPECT_FALSE(prepared.frameBatched());
    // And the run must still be bit-identical across thread counts
    // (the per-shot path's own contract).
    EXPECT_TRUE(distributionsIdentical(
        machine.run(sched, 3000, 2, 1),
        machine.run(sched, 3000, 2, 7)));
}

TEST(FrameBatchDispatch, StaticCrosstalkTwirlStaysBatched)
{
    // Crosstalk without OU is a shot-invariant phase: its static
    // twirl is a fixed Bernoulli and batches fine.
    const Device device = Device::synthetic(Topology::linear(4), 53);
    NoiseFlags flags = NoiseFlags::pauliOnly();
    flags.crosstalk = true;
    flags.twirlCoherent = true;
    const NoisyMachine machine(device, 0, flags);
    Circuit c(4);
    c.h(0);
    c.cx(1, 2); // drives a link; spectators accrue twirled phase
    c.delay(2000.0, 0);
    c.delay(2000.0, 3);
    c.h(3);
    c.cx(2, 3);
    c.measureAll();
    const ScheduledCircuit sched = scheduleLinear(device, c, false);
    const PreparedCircuit prepared = machine.prepare(sched);
    EXPECT_EQ(prepared.backend(), BackendKind::Stabilizer);
    EXPECT_TRUE(prepared.frameBatched());

    const Distribution batch =
        machine.run(prepared, kShots, 6, 0, ExecMode::Compiled);
    const Distribution pershot =
        machine.run(prepared, kShots, 6, 0, ExecMode::Interpreted);
    EXPECT_LT(tvDistance(batch, pershot), 0.02);
}

// -------------------------------------------- wide-register keying

TEST(FrameBatchWide, FingerprintKeysMatchPerShotEngine)
{
    // 70 measured clbits: OutcomePacker switches to splitmix
    // fingerprints.  On a deterministic circuit both engines must
    // produce the identical single key; on a GHZ they must produce
    // the identical two keys — i.e. the bitstring -> fingerprint
    // round trip is engine-independent.
    const int n = 70;
    const Device device = Device::synthetic(Topology::linear(n), 61);
    const NoisyMachine machine(device, 0, NoiseFlags::none());

    Circuit det(n);
    det.x(0);
    for (int q = 0; q + 1 < n; q++)
        det.cx(q, q + 1);
    det.measureAll();
    const ScheduledCircuit det_sched =
        scheduleLinear(device, det, false);
    const PreparedCircuit det_prep =
        machine.prepare(det_sched, BackendKind::Stabilizer);
    ASSERT_TRUE(det_prep.frameBatched());
    const Distribution det_batch =
        machine.run(det_prep, 500, 2, 0, ExecMode::Compiled);
    const Distribution det_pershot =
        machine.run(det_prep, 500, 2, 0, ExecMode::Interpreted);
    EXPECT_EQ(det_batch.support(), 1u);
    EXPECT_TRUE(distributionsIdentical(det_batch, det_pershot));

    Circuit ghz(n);
    ghz.h(0);
    for (int q = 0; q + 1 < n; q++)
        ghz.cx(q, q + 1);
    ghz.measureAll();
    const ScheduledCircuit ghz_sched =
        scheduleLinear(device, ghz, false);
    const PreparedCircuit ghz_prep =
        machine.prepare(ghz_sched, BackendKind::Stabilizer);
    const Distribution ghz_batch =
        machine.run(ghz_prep, 4000, 3, 0, ExecMode::Compiled);
    const Distribution ghz_pershot =
        machine.run(ghz_prep, 4000, 3, 0, ExecMode::Interpreted);
    EXPECT_EQ(ghz_batch.support(), 2u);
    for (const auto &[key, prob] : ghz_batch.probabilities()) {
        EXPECT_GT(ghz_pershot.probability(key), 0.4)
            << "fingerprint key mismatch across engines";
        EXPECT_NEAR(prob, 0.5, 0.03);
    }
}

TEST(FrameBatchWide, WordBoundaryWidthsAgreeWithPerShot)
{
    // 63 / 64 / 65 measured clbits: the direct-key / fingerprint
    // switch and the frame planes' qubit indexing around the word
    // boundary.  Noise-free, the law is two equiprobable bitstrings;
    // both engines must emit the same two keys.
    for (const int n : {63, 64, 65}) {
        const Device device =
            Device::synthetic(Topology::linear(n), 62);
        const NoisyMachine ideal(device, 0, NoiseFlags::none());
        const ScheduledCircuit sched =
            scheduleLinear(device, ladderCircuit(n), false);
        const PreparedCircuit prepared =
            ideal.prepare(sched, BackendKind::Stabilizer);
        ASSERT_TRUE(prepared.frameBatched());
        const Distribution batch =
            ideal.run(prepared, 20000, 4, 0, ExecMode::Compiled);
        const Distribution pershot =
            ideal.run(prepared, 20000, 4, 0, ExecMode::Interpreted);
        ASSERT_EQ(batch.support(), 2u) << "width " << n;
        for (const auto &[key, prob] : batch.probabilities()) {
            EXPECT_NEAR(prob, 0.5, 0.02) << "width " << n;
            EXPECT_GT(pershot.probability(key), 0.4)
                << "key mismatch across engines at width " << n;
        }
    }
}

TEST(FrameBatchWide, WideRegistersBitIdenticalAcrossThreadCounts)
{
    // Under noise the frame engine must be bit-identical to itself
    // across thread counts at the word-boundary widths and at the
    // 100-qubit characterization width.
    for (const int n : {63, 64, 65, 100}) {
        const Device device =
            Device::synthetic(Topology::linear(n), 62);
        const NoisyMachine noisy(device, 0, NoiseFlags::pauliOnly());
        const PreparedCircuit prepared = noisy.prepare(
            scheduleLinear(device, ladderCircuit(n), false),
            BackendKind::Stabilizer);
        ASSERT_TRUE(prepared.frameBatched());
        const Distribution serial =
            noisy.run(prepared, 20000, 4, 1, ExecMode::Compiled);
        for (const int threads : {5, 0}) {
            EXPECT_TRUE(distributionsIdentical(
                serial,
                noisy.run(prepared, 20000, 4, threads,
                          ExecMode::Compiled)))
                << "width " << n << " threads " << threads;
        }
    }
}
