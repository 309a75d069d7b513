/**
 * @file
 * Compiled shot programs vs. the interpreted reference engine.
 *
 * The contract under test (noise/compiled.hh): lowering a job into a
 * ShotProgram and replaying it changes *nothing observable* — for any
 * noise-flag combination, any seed, any thread count, and
 * batch-vs-serial, the compiled dense path consumes the same RNG
 * streams and produces bit-identical output distributions to the
 * interpreted path (ExecMode::Interpreted), which in turn matches the
 * historical engine.  On top of the exact checks, the distribution
 * corpus is validated against ideal references with the shared
 * tvDistance / chi-squared helpers so both paths are also locked to
 * the correct law, not merely to each other.
 */

#include <gtest/gtest.h>

#include <vector>

#include "adapt/decoy.hh"
#include "common/parallel.hh"
#include "dd/sequences.hh"
#include "noise/compiled.hh"
#include "noise/machine.hh"
#include "test_util.hh"
#include "transpile/transpiler.hh"
#include "workloads/benchmarks.hh"

namespace adapt
{
namespace
{

using testutil::distributionsIdentical;
using testutil::distributionsMatch;
using testutil::tvDistance;

/** Thread counts every identity assertion is repeated at. */
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
 *  coherent phases and no program has per-shot phase slots — an
 *  input no other config here covers (pauliOnly() drops crosstalk
 *  too). */
NoiseFlags
allButOu()
{
    NoiseFlags flags = NoiseFlags::all();
    flags.ouDephasing = false;
    return flags;
}

/**
 * Assert the compiled dense replay reproduces the interpreted engine
 * bit for bit: serial interpreted reference vs compiled at several
 * thread counts, plus a prepared-handle rerun.
 */
void
expectCompiledMatchesInterpreted(const NoisyMachine &machine,
                                 const ScheduledCircuit &sched,
                                 int shots, uint64_t seed)
{
    const Distribution reference =
        machine.run(sched, shots, seed, /*threads=*/1,
                    BackendKind::Dense, ExecMode::Interpreted);
    for (int threads : threadCounts()) {
        const Distribution compiled =
            machine.run(sched, shots, seed, threads,
                        BackendKind::Dense, ExecMode::Compiled);
        EXPECT_TRUE(distributionsIdentical(reference, compiled))
            << "threads=" << threads;
    }
    const PreparedCircuit prepared =
        machine.prepare(sched, BackendKind::Dense);
    EXPECT_TRUE(distributionsIdentical(
        reference, machine.run(prepared, shots, seed)));
}

TEST(CompiledProgram, MatchesInterpretedOnNonCliffordWorkload)
{
    const Device device = Device::ibmqRome();
    const ScheduledCircuit sched =
        compileWorkload(makeQaoa(5, QaoaGraph::A), device);
    const NoisyMachine machine(device); // NoiseFlags::all()
    expectCompiledMatchesInterpreted(machine, sched, 800, 11);
    const NoisyMachine no_ou(device, 0, allButOu());
    expectCompiledMatchesInterpreted(no_ou, sched, 800, 11);
}

TEST(CompiledProgram, MatchesInterpretedPerNoiseChannel)
{
    // One flag at a time (plus all-off, all-on, Pauli-only and
    // all-but-OU): every opcode kind, draw-consumption rule, and
    // threshold is crossed.
    std::vector<NoiseFlags> configs;
    configs.push_back(NoiseFlags::none());
    configs.push_back(NoiseFlags::all());
    configs.push_back(NoiseFlags::pauliOnly());
    configs.push_back(allButOu());
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
        const Distribution reference =
            machine.run(sched, 400, 29 + i, 1, BackendKind::Dense,
                        ExecMode::Interpreted);
        const Distribution compiled =
            machine.run(sched, 400, 29 + i, 4, BackendKind::Dense,
                        ExecMode::Compiled);
        EXPECT_TRUE(distributionsIdentical(reference, compiled))
            << "config " << i;
    }
}

TEST(CompiledProgram, ErrorSpliceMatchesInterpretedMidFusion)
{
    // DD-padded executable: dense pulse trains (hundreds of physical
    // pulses) with gate errors as the only channel, at enough shots
    // that errors certainly fire mid-train — prefix splice, repeated
    // (multi-error) splice, and the capped-suffix sequential fold all
    // execute.  Any draw-order or splice-product deviation from the
    // interpreter would shift outcomes and break exact identity.
    NoiseFlags flags = NoiseFlags::none();
    flags.gateErrors = true;
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0, flags);
    const ScheduledCircuit bare =
        compileWorkload(makeQaoa(4, QaoaGraph::B), device);
    const ScheduledCircuit padded =
        insertDDAll(bare, machine.calibration(), DDOptions{});
    ASSERT_GT(ddPulseCount(padded), 0);

    // Prove the splice path actually executes: over these shots some
    // must leave the no-error fast stream (a gate error fired inside
    // a fused train) while most stay on it.
    const ExecutionPlan plan =
        buildPlan(padded, machine.calibration(), machine.flags());
    const ShotProgram prog = compileShotProgram(
        plan, machine.calibration(), machine.flags());
    ShotReplayer replayer(plan, prog);
    const Rng base(uint64_t{17} ^ 0xadab7dd);
    for (int shot = 0; shot < 1500; shot++)
        replayer.runShot(base.fork(static_cast<uint64_t>(shot) + 1));
    EXPECT_LT(replayer.fastShots(), replayer.totalShots());
    EXPECT_GT(replayer.fastShots(), 0u);

    expectCompiledMatchesInterpreted(machine, padded, 1500, 17);
}

/**
 * A hand-built schedule on ibmq_rome's line whose qubits join late:
 * physical 1 and 2 run SX, CX and their measurements first; physical 0
 * joins only after those measurements, with one long pulse whose
 * Markov op (T1 and dephasing draws over 50 us, its only noise before
 * that pulse) fires in many shots; physical 3 has nothing but a Delay.
 */
ScheduledCircuit
lateJoinSchedule(const Device &device)
{
    ScheduledCircuit sched(device.topology().numQubits(), 3);
    auto add = [&](Gate gate, TimeNs start, TimeNs end, int link = -1) {
        TimedOp op;
        op.gate = std::move(gate);
        op.start = start;
        op.end = end;
        op.linkIndex = link;
        sched.addOp(std::move(op));
    };
    auto measure = [](QubitId q, int clbit) {
        Gate gate(GateType::Measure, {q});
        gate.clbit = clbit;
        return gate;
    };
    add(Gate(GateType::Delay, {3}, {9000.0}), 0.0, 9000.0);
    add(Gate(GateType::SX, {1}), 0.0, 35.0);
    add(Gate(GateType::CX, {1, 2}), 35.0, 400.0,
        device.topology().linkIndex(1, 2));
    add(measure(1, 0), 400.0, 4000.0);
    add(measure(2, 1), 400.0, 4000.0);
    add(Gate(GateType::SX, {0}), 6000.0, 56000.0);
    add(measure(0, 2), 56000.0, 59600.0);
    sched.finalize();
    return sched;
}

TEST(CompiledProgram, LateJoiningQubitsMatchInterpreted)
{
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device); // NoiseFlags::all()
    const ScheduledCircuit sched = lateJoinSchedule(device);

    // Dense index = physical qubit here (all four are active); bits go
    // in step order: physical 1 (SX), 2 (CX target), 0 (late SX), then
    // 3, which has no step.
    const ExecutionPlan plan =
        buildPlan(sched, machine.calibration(), machine.flags());
    ASSERT_EQ(plan.active, (std::vector<QubitId>{0, 1, 2, 3}));
    EXPECT_EQ(plan.svBit, (std::vector<int>{2, 0, 1, 3}));

    // The late qubit's join-step Markov op really fires, both its T1
    // draw (resolved against a qubit not yet in the live prefix) and
    // its dephasing draw.
    const ShotProgram prog = compileShotProgram(
        plan, machine.calibration(), machine.flags());
    uint32_t join_op = 0;
    while (join_op < prog.ops.size() &&
           !(prog.ops[join_op].kind == OpRef::Kind::Markov &&
             prog.markov[prog.ops[join_op].idx].q == 0))
        join_op++;
    ASSERT_LT(join_op, prog.ops.size());
    ShotReplayer replayer(plan, prog);
    ShotTape tape;
    int t1_jumps = 0, deph_flips = 0;
    const Rng base(uint64_t{41} ^ 0xadab7dd);
    for (int shot = 0; shot < 400; shot++) {
        replayer.drawTape(base.fork(static_cast<uint64_t>(shot) + 1),
                          tape);
        for (const ShotEvent &e : tape.events) {
            if (e.op != join_op)
                continue;
            t1_jumps += e.kind == ShotEvent::Kind::T1Jump;
            deph_flips += e.kind == ShotEvent::Kind::DephZ;
        }
    }
    EXPECT_GT(t1_jumps, 40);
    EXPECT_GT(deph_flips, 5);

    expectCompiledMatchesInterpreted(machine, sched, 3000, 41);
}

TEST(CompiledProgram, RoutedQaoa10DecoyMatchesInterpreted)
{
    // QAOA-10A routed onto ibmq_toronto (the Fig. 13 suite's widest
    // dense program) with its XY4-padded decoy: the qubits routing
    // borrows join the stream late.
    const Device device = Device::ibmqToronto();
    const NoisyMachine machine(device);
    const CompiledProgram program = transpile(
        makeQaoa(10, QaoaGraph::A), device, machine.calibration());
    const Decoy decoy = makeDecoy(program.physical, DecoyOptions{});
    const ScheduledCircuit padded = insertDDAll(
        reschedule(decoy.circuit, device, machine.calibration()),
        machine.calibration(), DDOptions{});
    ASSERT_GT(ddPulseCount(padded), 0);
    const ExecutionPlan plan =
        buildPlan(padded, machine.calibration(), machine.flags());
    ASSERT_GT(plan.active.size(), 10u);
    expectCompiledMatchesInterpreted(machine, padded, 200, 43);
}

TEST(CompiledProgram, PreparedBatchMatchesSerialRuns)
{
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device);
    std::vector<ScheduledCircuit> jobs;
    std::vector<PreparedCircuit> prepared;
    std::vector<uint64_t> seeds;
    for (int v = 0; v < 5; v++) {
        jobs.push_back(compileWorkload(
            makeQaoa(4, v % 2 ? QaoaGraph::A : QaoaGraph::B, 7 + v),
            device));
        prepared.push_back(machine.prepare(jobs.back()));
        seeds.push_back(101 + static_cast<uint64_t>(v) * 7919);
    }
    for (int threads : threadCounts()) {
        const std::vector<Distribution> batch =
            machine.runBatch(prepared, 300, seeds, threads);
        ASSERT_EQ(batch.size(), jobs.size());
        for (size_t i = 0; i < jobs.size(); i++) {
            EXPECT_TRUE(distributionsIdentical(
                batch[i], machine.run(jobs[i], 300, seeds[i])))
                << "job " << i << " threads " << threads;
        }
    }
}

TEST(CompiledProgram, PreparedHandleIsReusableAcrossSeeds)
{
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device);
    const ScheduledCircuit sched =
        compileWorkload(makeQaoa(4, QaoaGraph::A), device);
    const PreparedCircuit prepared = machine.prepare(sched);
    EXPECT_EQ(prepared.backend(), BackendKind::Dense);
    for (uint64_t seed : {1ULL, 77ULL, 31337ULL}) {
        EXPECT_TRUE(distributionsIdentical(
            machine.run(prepared, 200, seed),
            machine.run(sched, 200, seed)));
    }
}

TEST(CompiledProgram, NoiseFreeReplayMatchesIdealLaw)
{
    // TVD-corpus check reused across both paths: with every channel
    // off, the sampled outputs of the interpreted and compiled paths
    // must (a) be identical and (b) both be consistent with the exact
    // ideal distribution under the shared chi-squared test.
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0, NoiseFlags::none());
    const std::vector<Circuit> corpus = {
        makeQaoa(4, QaoaGraph::A),
        makeQft(4, QftState::B),
        makeQft(3, QftState::A),
    };
    for (size_t i = 0; i < corpus.size(); i++) {
        const CompiledProgram program =
            transpile(corpus[i], device, device.calibration(0));
        const Distribution ideal = idealDistribution(program.physical);
        const Distribution interpreted =
            machine.run(program.schedule, 4000, 5 + i, 0,
                        BackendKind::Dense, ExecMode::Interpreted);
        const Distribution compiled =
            machine.run(program.schedule, 4000, 5 + i, 0,
                        BackendKind::Dense, ExecMode::Compiled);
        EXPECT_TRUE(distributionsIdentical(interpreted, compiled));
        EXPECT_TRUE(distributionsMatch(compiled, ideal))
            << "corpus " << i;
        EXPECT_LT(tvDistance(compiled, ideal), 0.05);
    }
}

TEST(CompiledProgram, LightNoiseStaysCloseToIdeal)
{
    // Sanity on the law under realistic noise: fidelity loss exists
    // but is bounded, and identical across the two paths.
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device);
    const CompiledProgram program =
        transpile(makeQaoa(4, QaoaGraph::A), device,
                  device.calibration(0));
    const Distribution ideal = idealDistribution(program.physical);
    const Distribution compiled =
        machine.run(program.schedule, 4000, 23);
    const double tvd = tvDistance(compiled, ideal);
    EXPECT_GT(tvd, 0.0);
    EXPECT_LT(tvd, 0.5);
}

TEST(CompiledProgram, BernoulliThresholdMatchesRngCompare)
{
    // Exactness of the fixed-point lowering: for any probability and
    // any raw word, (word >> 11) < threshold(p) must equal the
    // uniform() < p comparison Rng::bernoulli performs on that word.
    Rng rng(99);
    std::vector<double> probs = {0.0,    1e-18, 1e-9, 3e-4, 0.013,
                                 0.5,    0.75,  1.0 - 1e-12, 1.0, 2.0,
                                 -0.5};
    for (int i = 0; i < 200; i++)
        probs.push_back(rng.uniform());
    for (double p : probs) {
        const uint64_t thresh = bernoulliThreshold(p);
        for (int i = 0; i < 500; i++) {
            const uint64_t word = rng.next();
            const uint64_t u = word >> 11;
            const bool via_uniform =
                static_cast<double>(u) * 0x1.0p-53 < p;
            const bool via_thresh = u < thresh;
            ASSERT_EQ(via_uniform, via_thresh)
                << "p=" << p << " u=" << u;
        }
    }
}

TEST(CompiledProgram, FastPathCoversNoiselessShots)
{
    // With every stochastic channel off, every shot must take the
    // no-error fast replay stream.
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0, NoiseFlags::none());
    const ScheduledCircuit sched =
        compileWorkload(makeQaoa(4, QaoaGraph::A), device);
    const ExecutionPlan plan =
        buildPlan(sched, machine.calibration(), machine.flags());
    const ShotProgram prog = compileShotProgram(
        plan, machine.calibration(), machine.flags());
    ShotReplayer replayer(plan, prog);
    const Rng base(123);
    for (int shot = 0; shot < 64; shot++)
        replayer.runShot(base.fork(static_cast<uint64_t>(shot) + 1));
    EXPECT_EQ(replayer.fastShots(), replayer.totalShots());
    EXPECT_EQ(replayer.totalShots(), 64u);
}

TEST(CompiledProgram, StabilizerJobsCompileToFrameBatch)
{
    // Clifford executable + Pauli-expressible noise routes to the
    // stabilizer backend under Auto, and ExecMode::Compiled now
    // selects the batched Pauli-frame engine with the per-shot
    // tableau kept as the Interpreted reference.  The two consume
    // different RNG streams, so the lock here is dispatch,
    // thread-count bit-identity, and statistical equivalence (the
    // full corpus lives in test_frame_batch.cc).
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    const ScheduledCircuit sched = compileWorkload(
        makeBernsteinVazirani(4, /*secret=*/0b101), device);
    const PreparedCircuit prepared = machine.prepare(sched);
    EXPECT_EQ(prepared.backend(), BackendKind::Stabilizer);
    EXPECT_TRUE(prepared.frameBatched());

    const Distribution batch = machine.run(
        sched, 20000, 3, 1, BackendKind::Auto, ExecMode::Compiled);
    EXPECT_TRUE(distributionsIdentical(
        batch, machine.run(sched, 20000, 3, 7, BackendKind::Auto,
                           ExecMode::Compiled)));
    EXPECT_LT(tvDistance(batch,
                         machine.run(sched, 20000, 3, 1,
                                     BackendKind::Auto,
                                     ExecMode::Interpreted)),
              0.02);
}

} // namespace
} // namespace adapt
