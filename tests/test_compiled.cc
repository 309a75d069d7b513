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

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "adapt/decoy.hh"
#include "common/parallel.hh"
#include "dd/sequences.hh"
#include "noise/compiled.hh"
#include "noise/machine.hh"
#include "test_util.hh"
#include "transpile/decompose.hh"
#include "transpile/schedule.hh"
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
    // that errors fire mid-train — the prefix splice and the
    // capped-suffix sequential fold execute.  Any draw-order or
    // splice-product deviation from the interpreter would shift
    // outcomes and break exact identity.
    NoiseFlags flags = NoiseFlags::none();
    flags.gateErrors = true;
    const Device device = Device::ibmqRome();
    const NoisyMachine machine(device, 0, flags);
    const ScheduledCircuit bare =
        compileWorkload(makeQaoa(4, QaoaGraph::B), device);
    const ScheduledCircuit padded =
        insertDDAll(bare, machine.calibration(), DDOptions{});
    ASSERT_GT(ddPulseCount(padded), 0);

    // Prove the splice paths run: the compiled thresholds (p =
    // thresh * 2^-53) expect many fired gate errors over these shots,
    // in all trains and in the trains too long for a suffix table.
    const ExecutionPlan plan =
        buildPlan(padded, machine.calibration(), machine.flags());
    const ShotProgram prog = compileShotProgram(
        plan, machine.calibration(), machine.flags());
    constexpr int kShots = 1500;
    double fires = 0.0, capped_fires = 0.0;
    for (const Fused1QOp &f : prog.fused) {
        for (uint32_t e = 0; e < f.errCnt; e++) {
            const double p = std::ldexp(
                static_cast<double>(prog.errChecks[f.errOff + e].thresh),
                -53);
            fires += p;
            if (f.suffixOff == kNoTable)
                capped_fires += p;
        }
    }
    EXPECT_GT(kShots * fires, 50.0);
    EXPECT_GT(kShots * capped_fires, 20.0);

    expectCompiledMatchesInterpreted(machine, padded, kShots, 17);
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
    // check (resolved against a qubit not yet in the live prefix) and
    // its dephasing check: its thresholds (p = thresh * 2^-53) expect
    // many fires in 400 shots.
    const ShotProgram prog = compileShotProgram(
        plan, machine.calibration(), machine.flags());
    const auto join = std::find_if(
        prog.ops.begin(), prog.ops.end(), [&](const OpRef &ref) {
            return ref.kind == OpRef::Kind::Markov &&
                   prog.markov[ref.idx].q == 0;
        });
    ASSERT_NE(join, prog.ops.end());
    const MarkovOp &m = prog.markov[join->idx];
    ASSERT_NE(m.t1Thresh, kNoDraw);
    ASSERT_NE(m.dephThresh, kNoDraw);
    EXPECT_GT(400 * std::ldexp(static_cast<double>(m.t1Thresh), -53),
              40.0);
    EXPECT_GT(400 * std::ldexp(static_cast<double>(m.dephThresh), -53),
              5.0);

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

/** Schedule @p c as-late-as-possible on a line, optionally with XY4. */
ScheduledCircuit
scheduleLine(const Device &device, const Circuit &c, bool with_dd)
{
    const Calibration cal = device.calibration(0);
    ScheduledCircuit sched = schedule(decompose(c), device.topology(),
                                      cal, ScheduleMode::Alap);
    if (with_dd)
        sched = insertDDAll(sched, cal, DDOptions{});
    return sched;
}

/**
 * A seeded random dynamic circuit over a line of @p width qubits.
 * Now and then a qubit is measured for the last time and leaves the
 * op pool, so final measurements land mid-circuit; the rest mixes
 * repeated measurements, resets, X / Z feedback, T and RZ gates,
 * delays and nearest-neighbour CX.  A closing readout skips some of
 * the qubits still in the pool.
 */
Circuit
dynamicRetireCircuit(int width, uint64_t seed)
{
    Rng rng(seed * 6151 + 7);
    const int clbits = width + 1;
    auto clbit = [&] {
        return static_cast<int>(
            rng.uniformInt(static_cast<uint64_t>(clbits)));
    };
    Circuit c(width, clbits);
    std::vector<bool> done(static_cast<size_t>(width), false);
    int live = width;
    auto alive = [&](QubitId q) {
        return q >= 0 && q < width && !done[static_cast<size_t>(q)];
    };
    for (int layer = 0; layer < 10 * width; layer++) {
        QubitId q = 0;
        do {
            q = static_cast<QubitId>(
                rng.uniformInt(static_cast<uint64_t>(width)));
        } while (!alive(q));
        if (live > 1 && rng.bernoulli(0.08)) {
            c.measure(q, clbit());
            done[static_cast<size_t>(q)] = true;
            live--;
            continue;
        }
        switch (rng.uniformInt(11)) {
          case 0: c.h(q); break;
          case 1: c.t(q); break;
          case 2: c.rz(rng.uniform(-kPi, kPi), q); break;
          case 3: c.sx(q); break;
          case 4: c.delay(300.0 + 600.0 * rng.uniform(), q); break;
          case 5: c.measure(q, clbit()); break;
          case 6: c.reset(q); break;
          case 7: c.xIf(q, clbit()); break;
          case 8: c.zIf(q, clbit()); break;
          default: {
            const QubitId b = alive(q + 1) ? q + 1 : q - 1;
            if (alive(b))
                c.cx(q, b);
            else
                c.h(q);
            break;
          }
        }
    }
    for (QubitId q = 0; q < width; q++) {
        if (alive(q) && rng.bernoulli(0.75))
            c.measure(q, clbit());
    }
    return c;
}

/** Retiring Meas steps of @p plan that some non-Meas step follows. */
int
midCircuitRetirements(const ExecutionPlan &plan)
{
    int count = 0;
    bool later_gate = false;
    for (auto it = plan.steps.rbegin(); it != plan.steps.rend(); ++it) {
        if (it->kind != PlanStep::Kind::Meas)
            later_gate = true;
        else if (it->retires && later_gate)
            count++;
    }
    return count;
}

TEST(CompiledProgram, TeleportationRetiresSendersMidCircuit)
{
    // Both sender qubits are measured for the last time before the
    // feedback, so the dense engines drop them from the state vector
    // while the corrections and a CX still run on the two survivors.
    const Device device = Device::synthetic(Topology::linear(4), 31);
    const NoisyMachine machine(device); // NoiseFlags::all()
    Circuit c(4, 4);
    c.ry(1.1, 0); // a non-Clifford state to teleport
    c.t(0);
    c.h(1);
    c.cx(1, 2);
    c.h(3);
    c.cx(0, 1);
    c.h(0);
    c.measure(0, 0);
    c.measure(1, 1);
    c.xIf(2, 1);
    c.zIf(2, 0);
    c.cx(2, 3);
    c.measure(2, 2);
    c.measure(3, 3);
    const ScheduledCircuit sched = scheduleLine(device, c, false);

    const ExecutionPlan plan =
        buildPlan(sched, machine.calibration(), machine.flags());
    int retiring = 0;
    for (const PlanStep &step : plan.steps)
        retiring += step.retires;
    EXPECT_EQ(retiring, 4);
    EXPECT_EQ(midCircuitRetirements(plan), 2);
    expectCompiledMatchesInterpreted(machine, sched, 2000, 53);
}

TEST(CompiledProgram, DynamicCircuitCorpusMatchesInterpreted)
{
    // Seeded dynamic circuits of width 2-8 under every noise channel,
    // XY4-padded on every other seed: mid-circuit retirement, repeated
    // measurements, resets and feedback on the compiled replay must
    // match the interpreted walk bit for bit.
    int mid_circuit = 0;
    for (int i = 0; i < 40; i++) {
        const int width = 2 + i % 7;
        const auto seed = static_cast<uint64_t>(300 + i);
        const Device device =
            Device::synthetic(Topology::linear(width), seed);
        const NoisyMachine machine(device);
        const ScheduledCircuit sched = scheduleLine(
            device, dynamicRetireCircuit(width, seed), i % 2 == 1);
        mid_circuit += midCircuitRetirements(
            buildPlan(sched, machine.calibration(), machine.flags()));
        SCOPED_TRACE("corpus entry " + std::to_string(i));
        expectCompiledMatchesInterpreted(machine, sched, 300, seed);
    }
    // The corpus must keep exercising retirement before the last op.
    EXPECT_GE(mid_circuit, 40);
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
