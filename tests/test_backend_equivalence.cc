/**
 * @file
 * Cross-backend equivalence suite: the stabilizer (Pauli-frame) fast
 * path and the dense state vector must sample the same law on every
 * executable both can run — randomized Clifford corpora with varying
 * width, depth, DD masks, and seeds — exactly for noise-free
 * deterministic circuits, and bit-identically across thread counts.
 * Also locks down the BackendKind::Auto dispatch rules.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "dd/sequences.hh"
#include "noise/machine.hh"
#include "sim/backend.hh"
#include "sim/statevector.hh"
#include "test_util.hh"
#include "transpile/decompose.hh"
#include "transpile/schedule.hh"

using namespace adapt;
using namespace adapt::testutil;

namespace
{

/** Corpus entry: a randomized Clifford executable. */
struct CorpusSpec
{
    int width;
    int depth;
    bool withDd;  //!< pad idle windows with an XY4 mask
    uint64_t seed;
};

/**
 * Random Clifford circuit over a line of @p width qubits, in named
 * gates, with Delay-induced idle windows and terminal measurement —
 * the shared CircuitFuzzer in static mode, which reproduces this
 * suite's historical corpus stream draw for draw.
 */
Circuit
randomCliffordExecutable(const CorpusSpec &spec)
{
    FuzzSpec fuzz;
    fuzz.width = spec.width;
    fuzz.depth = spec.depth;
    fuzz.seed = spec.seed;
    return CircuitFuzzer(fuzz).generate();
}

/** Schedule a named-gate circuit on a linear synthetic device. */
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

// --------------------------------------------------- randomized corpus

class BackendEquivalence
    : public ::testing::TestWithParam<CorpusSpec>
{
};

TEST_P(BackendEquivalence, StabilizerMatchesDenseWithinTvd)
{
    const CorpusSpec spec = GetParam();
    const Device device =
        Device::synthetic(Topology::linear(spec.width), spec.seed);
    const NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    const ScheduledCircuit sched = scheduleLinear(
        device, randomCliffordExecutable(spec), spec.withDd);

    const Distribution dense = machine.run(
        sched, kShots, spec.seed, 0, BackendKind::Dense);
    const Distribution stab = machine.run(
        sched, kShots, spec.seed, 0, BackendKind::Stabilizer);
    EXPECT_LT(tvDistance(dense, stab), 0.02)
        << "width " << spec.width << " depth " << spec.depth
        << " dd " << spec.withDd << " seed " << spec.seed;
}

TEST_P(BackendEquivalence, NoiseFreeBackendsMatchIdealDistribution)
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
        machine.run(sched, kShots, spec.seed, 0, BackendKind::Dense),
        ideal));
    EXPECT_TRUE(distributionsMatch(
        machine.run(sched, kShots, spec.seed, 0,
                    BackendKind::Stabilizer),
        ideal));
}

TEST_P(BackendEquivalence, BitIdenticalAcrossThreadCounts)
{
    const CorpusSpec spec = GetParam();
    const Device device =
        Device::synthetic(Topology::linear(spec.width), spec.seed);
    const NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    const ScheduledCircuit sched = scheduleLinear(
        device, randomCliffordExecutable(spec), spec.withDd);

    for (const BackendKind kind :
         {BackendKind::Dense, BackendKind::Stabilizer}) {
        const Distribution serial =
            machine.run(sched, 4000, spec.seed, 1, kind);
        const Distribution wide =
            machine.run(sched, 4000, spec.seed, 7, kind);
        EXPECT_TRUE(distributionsIdentical(serial, wide))
            << backendKindName(kind);
    }
}

INSTANTIATE_TEST_SUITE_P(
    RandomCliffordCorpus, BackendEquivalence,
    ::testing::Values(CorpusSpec{2, 30, false, 1},
                      CorpusSpec{3, 40, true, 2},
                      CorpusSpec{4, 60, false, 3},
                      CorpusSpec{4, 60, true, 4},
                      CorpusSpec{5, 80, true, 5},
                      CorpusSpec{5, 50, false, 6}));

// --------------------------------------- exact deterministic circuits

TEST(BackendEquivalenceExact, DeterministicNoiseFreeCircuitsAgreeExactly)
{
    // X / CX ladder: the output is a single deterministic bitstring,
    // so both backends must return the identical one-point
    // distribution — no sampling tolerance.
    const Device device = Device::synthetic(Topology::linear(4), 9);
    const NoisyMachine machine(device, 0, NoiseFlags::none());
    Circuit c(4);
    c.x(0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.x(2);
    c.cx(2, 3);
    c.measureAll();
    const ScheduledCircuit sched = scheduleLinear(device, c, false);

    const Distribution dense =
        machine.run(sched, 500, 1, 0, BackendKind::Dense);
    const Distribution stab =
        machine.run(sched, 500, 1, 0, BackendKind::Stabilizer);
    EXPECT_TRUE(distributionsIdentical(dense, stab));
    EXPECT_EQ(dense.support(), 1u);
    // x0=1 -> x1=1 -> x2 flips to 0 -> x3=0: outcome 0b0011.
    EXPECT_NEAR(dense.probability(0b0011), 1.0, 1e-12);
}

// ------------------------------------------------------- Auto dispatch

TEST(BackendDispatch, AutoPicksStabilizerForPauliCliffordJobs)
{
    const Device device = Device::synthetic(Topology::linear(3), 11);
    const NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    const ScheduledCircuit sched = scheduleLinear(
        device, randomCliffordExecutable({3, 30, false, 11}), false);

    EXPECT_EQ(machine.chooseBackend(sched), BackendKind::Stabilizer);
    // Auto must be *exactly* the stabilizer run, not merely close.
    EXPECT_TRUE(distributionsIdentical(
        machine.run(sched, 2000, 5, 0, BackendKind::Auto),
        machine.run(sched, 2000, 5, 0, BackendKind::Stabilizer)));
}

TEST(BackendDispatch, AutoFallsBackToDenseForCoherentNoise)
{
    const Device device = Device::synthetic(Topology::linear(3), 12);
    const NoisyMachine machine(device); // full model: OU + crosstalk
    const ScheduledCircuit sched = scheduleLinear(
        device, randomCliffordExecutable({3, 30, false, 12}), false);

    EXPECT_EQ(machine.chooseBackend(sched), BackendKind::Dense);
    EXPECT_TRUE(distributionsIdentical(
        machine.run(sched, 2000, 5, 0, BackendKind::Auto),
        machine.run(sched, 2000, 5, 0, BackendKind::Dense)));
}

TEST(BackendDispatch, AutoFallsBackToDenseForNonCliffordGates)
{
    const Device device = Device::synthetic(Topology::linear(2), 13);
    const NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    Circuit c(2);
    c.h(0);
    c.t(0); // non-Clifford
    c.cx(0, 1);
    c.measureAll();
    const ScheduledCircuit sched = scheduleLinear(device, c, false);

    EXPECT_EQ(machine.chooseBackend(sched), BackendKind::Dense);
}

TEST(BackendDispatch, ForcingStabilizerOnIneligibleJobsThrows)
{
    const Device device = Device::synthetic(Topology::linear(2), 14);
    Circuit nonclifford(2);
    nonclifford.h(0);
    nonclifford.t(0);
    nonclifford.cx(0, 1);
    nonclifford.measureAll();

    const NoisyMachine pauli(device, 0, NoiseFlags::pauliOnly());
    const ScheduledCircuit bad_gates =
        scheduleLinear(device, nonclifford, false);
    EXPECT_THROW(pauli.run(bad_gates, 100, 1, 0,
                           BackendKind::Stabilizer),
                 UsageError);

    Circuit clifford(2);
    clifford.h(0);
    clifford.cx(0, 1);
    clifford.measureAll();
    const NoisyMachine coherent(device); // OU + crosstalk enabled
    const ScheduledCircuit bad_noise =
        scheduleLinear(device, clifford, false);
    EXPECT_THROW(coherent.run(bad_noise, 100, 1, 0,
                              BackendKind::Stabilizer),
                 UsageError);
}

TEST(BackendDispatch, TwirlOptInKeepsCoherentNoiseOnFastPath)
{
    const Device device = Device::synthetic(Topology::linear(3), 15);
    NoiseFlags flags = NoiseFlags::all();
    flags.twirlCoherent = true;
    const NoisyMachine machine(device, 0, flags);
    const ScheduledCircuit sched = scheduleLinear(
        device, randomCliffordExecutable({3, 40, false, 15}), false);

    EXPECT_EQ(machine.chooseBackend(sched), BackendKind::Stabilizer);
    // The twirl is applied by the engine, not the backend, so the two
    // backends sample the same (approximate) law under this flag.
    const Distribution stab =
        machine.run(sched, kShots, 5, 0, BackendKind::Stabilizer);
    const Distribution dense =
        machine.run(sched, kShots, 5, 0, BackendKind::Dense);
    EXPECT_EQ(stab.totalSamples(), static_cast<uint64_t>(kShots));
    EXPECT_LT(tvDistance(stab, dense), 0.02);
}

TEST(BackendDispatch, WideRegistersUseFingerprintKeysConsistently)
{
    // 70 measured qubits: beyond direct 64-bit keying.  The machine
    // must run on the stabilizer backend and produce a plausible
    // fingerprint-keyed distribution.
    const int n = 70;
    const Device device = Device::synthetic(Topology::linear(n), 16);
    const NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    Circuit c(n);
    c.x(0);
    for (int q = 0; q + 1 < n; q++)
        c.cx(q, q + 1);
    c.measureAll();
    const ScheduledCircuit sched = scheduleLinear(device, c, false);
    EXPECT_EQ(machine.chooseBackend(sched), BackendKind::Stabilizer);

    const Distribution out = machine.run(sched, 300, 3, 0);
    EXPECT_EQ(out.totalSamples(), 300u);
    // Noise-free this circuit is deterministic; under Pauli noise the
    // mode still dominates, and identical runs are bit-identical.
    EXPECT_TRUE(
        distributionsIdentical(out, machine.run(sched, 300, 3, 0)));
}

// ------------------------------------------- backend object semantics

TEST(BackendObjects, FactoryRejectsAuto)
{
    EXPECT_THROW(makeBackend(BackendKind::Auto, 2), InternalError);
}

TEST(BackendObjects, PauliFrameRejectsRawMatrices)
{
    PauliFrameBackend backend(2);
    EXPECT_FALSE(backend.fusesMatrices());
    EXPECT_THROW(backend.apply1Q(gateMatrix(GateType::H), 0),
                 InternalError);
}

TEST(BackendObjects, SampleAgreesAcrossBackends)
{
    // GHZ-3 via idealOutputDistribution: the forced dense backend
    // returns the exact distribution, and the tableau's samples
    // follow it.
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.measureAll();

    const Distribution ideal = idealDistribution(c);
    const Distribution a =
        idealOutputDistribution(c, 20000, 21, BackendKind::Dense);
    const Distribution b =
        idealOutputDistribution(c, 20000, 22, BackendKind::Stabilizer);
    EXPECT_TRUE(distributionsIdentical(a, ideal));
    EXPECT_TRUE(distributionsMatch(b, ideal));
    EXPECT_LT(tvDistance(b, ideal), 0.02);
}

TEST(BackendObjects, InitRewindsState)
{
    PauliFrameBackend stab(2);
    Rng rng(3);
    stab.applyGate({GateType::X, {0}});
    EXPECT_NEAR(stab.populationOne(0), 1.0, 0.0);
    stab.init();
    EXPECT_NEAR(stab.populationOne(0), 0.0, 0.0);

    DenseBackend dense(2);
    dense.applyGate({GateType::X, {0}});
    EXPECT_NEAR(dense.populationOne(0), 1.0, 1e-12);
    dense.init();
    EXPECT_NEAR(dense.populationOne(0), 0.0, 1e-12);
    EXPECT_NEAR(dense.state().probability(0), 1.0, 1e-12);
}

TEST(BackendObjects, DenseBitTableAddressesTheStateVector)
{
    // Qubit q lives at state-vector bit sv_bit[q]: with {2, 0, 1}
    // qubit 1 joins first at bit 0, and a qubit the ops never touch
    // widens nothing.  A single-qubit op on a bit above the prefix is
    // held as that bit's pending operator, so the prefix widens only
    // when a read flushes it.
    DenseBackend dense(3, {2, 0, 1});
    dense.applyGate({GateType::H, {1}});
    EXPECT_EQ(dense.state().liveQubits(), 1);
    dense.applyGate({GateType::CX, {1, 2}});
    EXPECT_EQ(dense.state().liveQubits(), 2);
    EXPECT_NEAR(dense.state().probability(0b011), 0.5, 1e-12);
    EXPECT_NEAR(dense.populationOne(2), 0.5, 1e-12);
    EXPECT_EQ(dense.populationOne(0), 0.0);
    dense.applyPauli(1, 0);
    EXPECT_EQ(dense.state().liveQubits(), 2);
    EXPECT_NEAR(dense.state().probability(0b111), 0.5, 1e-12);
    EXPECT_EQ(dense.state().liveQubits(), 3);

    EXPECT_THROW(DenseBackend(3, {0, 1}), UsageError);
}

TEST(BackendObjects, DecayJumpMatchesDenseSemantics)
{
    // |+> with a decay jump must land exactly in |0> on both
    // backends (collapse onto |1>, then flip).
    DenseBackend dense(1);
    dense.applyGate({GateType::H, {0}});
    dense.applyDecayJump(0);
    EXPECT_NEAR(dense.populationOne(0), 0.0, 1e-12);

    PauliFrameBackend stab(1);
    stab.applyGate({GateType::H, {0}});
    stab.applyDecayJump(0);
    EXPECT_NEAR(stab.populationOne(0), 0.0, 0.0);
}

TEST(BackendObjects, WideCliffordRegistersRunBeyondDenseLimit)
{
    // 80 qubits: far beyond the dense cap; the Pauli-frame backend
    // must execute a noisy-Clifford-style sequence without issue.
    const int n = 80;
    PauliFrameBackend backend(n);
    Rng rng(5);
    backend.applyGate({GateType::H, {0}});
    for (int q = 0; q + 1 < n; q++)
        backend.applyGate({GateType::CX, {q, q + 1}});
    backend.applyPauli(3, 40);
    const bool first = backend.measure(0, rng, /*retire=*/false);
    for (int q = 1; q < n; q++)
        EXPECT_EQ(backend.measure(q, rng, /*retire=*/false), first);
}
