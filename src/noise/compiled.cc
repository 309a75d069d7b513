#include "noise/compiled.hh"

#include <cmath>
#include <utility>

#include "circuit/clifford1q.hh"
#include "common/logging.hh"
#include "sim/backend.hh"
#include "sim/stabilizer.hh"

namespace adapt
{

// ------------------------------------------------------------------
// Plan lowering (shared with the interpreted reference path).
// ------------------------------------------------------------------

namespace
{

/**
 * Pauli code of a conditional gate's action (engine packing 1 = X,
 * 2 = Y, 3 = Z), 0 for identity, -1 for non-Pauli.  The transpiler
 * lowers conditional unitaries to physical pulses ({X, Y, SX, RZ}
 * with the condition carried), so a conditional SX or quarter-turn
 * RZ is the non-Pauli case that keeps a job off the frame engine.
 */
int
condPauliCode(const Gate &gate)
{
    switch (gate.type) {
      case GateType::I: return 0;
      case GateType::X: return 1;
      case GateType::Y: return 2;
      case GateType::Z: return 3;
      case GateType::RZ:
      case GateType::U1:
        if (!gate.isClifford())
            return -1;
        switch (cliffordQuarterTurns(gate.params[0])) {
          case 0: return 0;
          case 2: return 3;
          default: return -1;
        }
      default:
        return -1;
    }
}

} // namespace

ProgramSkeleton
buildPlanSkeleton(const ScheduledCircuit &sched,
                  const NoiseFlags &flags)
{
    (void)flags; // lowering is flag-independent today
    ProgramSkeleton skel;
    ExecutionPlan &plan = skel.plan;

    // Dense-qubit relabelling: only qubits that execute ops occupy
    // state-vector space.
    const int n_phys = sched.numQubits();
    std::vector<int> dense(static_cast<size_t>(n_phys), -1);
    for (QubitId q = 0; q < n_phys; q++) {
        if (!sched.qubitOps(q).empty()) {
            dense[static_cast<size_t>(q)] =
                static_cast<int>(plan.active.size());
            plan.active.push_back(q);
        }
    }
    require(!plan.active.empty(), "cannot run an empty schedule");

    // Link-activity windows, recorded per scheduled link so the bind
    // phase can expand crosstalk sources against any calibration
    // without re-walking the schedule.  Links without activity
    // contribute no sources and are skipped, exactly like the legacy
    // per-link gather.
    plan.xtalk.resize(plan.active.size());
    int max_link = -1;
    for (const TimedOp &op : sched.ops())
        max_link = std::max(max_link, op.linkIndex);
    for (int li = 0; li <= max_link; li++) {
        auto intervals = sched.linkActivity(li);
        if (intervals.empty())
            continue;
        skel.linkWindows.push_back({li, std::move(intervals)});
    }

    // Back-to-back single-qubit ops (decomposed gates, DD pulse
    // trains) are fused into one step: per-pulse *errors* are still
    // sampled individually, but the state vector is touched once per
    // train instead of once per pulse.  This keeps dense XY4 fills
    // (1000+ pulses on long idle windows) affordable.
    std::vector<PlanStep> &steps = plan.steps;
    std::vector<int> open(plan.active.size(), -1);

    for (const TimedOp &op : sched.ops()) {
        const Gate &gate = op.gate;
        if (gate.type == GateType::Delay ||
            gate.type == GateType::Barrier || gate.type == GateType::I)
            continue;

        if (gate.condBit >= 0) {
            // Classically-controlled pulse: a standalone step (never
            // fused — it executes in a data-dependent subset of
            // shots) that carries no gate-error channel, so RNG
            // consumption stays a fixed property of the program on
            // every engine.
            const int dq = dense[static_cast<size_t>(gate.qubit())];
            open[static_cast<size_t>(dq)] = -1;
            PlanStep step;
            step.kind = PlanStep::Kind::Cond1Q;
            step.q = dq;
            step.start = op.start;
            step.end = op.end;
            step.condBit = gate.condBit;
            plan.maxClbit = std::max(plan.maxClbit, gate.condBit);
            plan.clifford = plan.clifford && gate.isClifford();
            if (condPauliCode(gate) < 0)
                plan.condNonPauli = true;
            Gate mapped = gate;
            mapped.qubits[0] = dq;
            step.pulses.push_back({std::move(mapped), gateMatrix(gate),
                                   0.0});
            steps.push_back(std::move(step));
            continue;
        }

        if (gate.type == GateType::Reset) {
            const int dq = dense[static_cast<size_t>(gate.qubit())];
            open[static_cast<size_t>(dq)] = -1;
            PlanStep step;
            step.kind = PlanStep::Kind::Reset;
            step.q = dq;
            step.start = op.start;
            step.end = op.end;
            steps.push_back(std::move(step));
            continue;
        }

        if (gate.type == GateType::Measure) {
            const int dq = dense[static_cast<size_t>(gate.qubit())];
            open[static_cast<size_t>(dq)] = -1;
            PlanStep step;
            step.kind = PlanStep::Kind::Meas;
            step.q = dq;
            step.start = op.start;
            step.end = op.end;
            step.clbit = gate.clbit < 0 ? static_cast<int>(gate.qubit())
                                        : gate.clbit;
            plan.maxClbit = std::max(plan.maxClbit, step.clbit);
            steps.push_back(std::move(step));
            continue;
        }

        if (isTwoQubitGate(gate.type)) {
            const int da = dense[static_cast<size_t>(gate.qubits[0])];
            const int db = dense[static_cast<size_t>(gate.qubits[1])];
            open[static_cast<size_t>(da)] = -1;
            open[static_cast<size_t>(db)] = -1;
            PlanStep step;
            step.kind = PlanStep::Kind::TwoQubit;
            step.q = da;
            step.q2 = db;
            step.start = op.start;
            step.end = op.end;
            step.twoQubitType = gate.type;
            require(op.linkIndex >= 0 || gate.type != GateType::CX,
                    "scheduled CX without a link index");
            step.linkIndex = op.linkIndex;
            steps.push_back(std::move(step));
            continue;
        }

        // Single-qubit unitary: fuse with the previous step when they
        // touch (gap below 1 ps) on this qubit.
        const int dq = dense[static_cast<size_t>(gate.qubit())];
        const bool physical_pulse =
            gate.type == GateType::X || gate.type == GateType::Y ||
            gate.type == GateType::SX || gate.type == GateType::SXdg;
        plan.clifford = plan.clifford && gate.isClifford();
        Gate mapped = gate;
        mapped.qubits[0] = dq;
        Pulse pulse{std::move(mapped), gateMatrix(gate), 0.0,
                    physical_pulse};
        const int open_idx = open[static_cast<size_t>(dq)];
        if (open_idx >= 0 &&
            op.start - steps[static_cast<size_t>(open_idx)].end < 1e-3) {
            steps[static_cast<size_t>(open_idx)].pulses.push_back(
                std::move(pulse));
            steps[static_cast<size_t>(open_idx)].end =
                std::max(steps[static_cast<size_t>(open_idx)].end,
                         op.end);
            continue;
        }
        PlanStep step;
        step.kind = PlanStep::Kind::Fused1Q;
        step.q = dq;
        step.start = op.start;
        step.end = op.end;
        step.pulses.push_back(std::move(pulse));
        open[static_cast<size_t>(dq)] = static_cast<int>(steps.size());
        steps.push_back(std::move(step));
    }

    // State-vector bits in join order (see ExecutionPlan::svBit).
    plan.svBit.assign(plan.active.size(), -1);
    int next_bit = 0;
    auto join = [&](int dq) {
        int &bit = plan.svBit[static_cast<size_t>(dq)];
        if (bit < 0)
            bit = next_bit++;
    };
    for (const PlanStep &step : steps) {
        join(step.q);
        if (step.kind == PlanStep::Kind::TwoQubit)
            join(step.q2);
    }
    for (size_t dq = 0; dq < plan.svBit.size(); dq++)
        join(static_cast<int>(dq));

    // A Meas that is the last step touching its qubit retires it.
    std::vector<bool> touched_later(plan.active.size(), false);
    for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
        const auto q = static_cast<size_t>(it->q);
        it->retires =
            it->kind == PlanStep::Kind::Meas && !touched_later[q];
        touched_later[q] = true;
        if (it->kind == PlanStep::Kind::TwoQubit)
            touched_later[static_cast<size_t>(it->q2)] = true;
    }

    // Exact size: the skeleton may live on in the program cache, and
    // DD trains fuse thousands of ops into a few hundred steps.
    steps.shrink_to_fit();
    for (PlanStep &step : steps)
        step.pulses.shrink_to_fit();
    return skel;
}

ExecutionPlan
bindPlan(const ProgramSkeleton &skel, const Calibration &cal,
         const NoiseFlags &flags)
{
    ExecutionPlan plan = skel.plan;

    // Crosstalk sources per active qubit: every CX interval on a link
    // with a non-negligible coupling to this spectator, expanded from
    // the recorded link-activity windows in the legacy gather order
    // (link ascending, spectator ascending, windows in time order).
    if (flags.crosstalk) {
        for (const LinkWindows &lw : skel.linkWindows) {
            for (size_t ai = 0; ai < plan.active.size(); ai++) {
                const double rate =
                    cal.crosstalk(lw.link, plan.active[ai]);
                if (std::abs(rate) < 1e-6)
                    continue;
                for (const auto &[t0, t1] : lw.windows)
                    plan.xtalk[ai].push_back({t0, t1, rate});
            }
        }
    }

    for (PlanStep &step : plan.steps) {
        switch (step.kind) {
          case PlanStep::Kind::Meas: {
            const auto &qc = cal.qubits[static_cast<size_t>(
                plan.active[static_cast<size_t>(step.q)])];
            step.err01 = qc.readoutError01;
            step.err10 = qc.readoutError10;
            break;
          }
          case PlanStep::Kind::TwoQubit:
            step.cxError =
                step.linkIndex >= 0
                    ? cal.links[static_cast<size_t>(step.linkIndex)]
                          .cxError
                    : 0.0;
            break;
          case PlanStep::Kind::Fused1Q: {
            const auto &qc = cal.qubits[static_cast<size_t>(
                plan.active[static_cast<size_t>(step.q)])];
            for (Pulse &pulse : step.pulses)
                pulse.errorProb = pulse.physical ? qc.gateError1Q : 0.0;
            break;
          }
          case PlanStep::Kind::Reset:
          case PlanStep::Kind::Cond1Q:
            break;
        }
    }
    return plan;
}

ExecutionPlan
buildPlan(const ScheduledCircuit &sched, const Calibration &cal,
          const NoiseFlags &flags)
{
    return bindPlan(buildPlanSkeleton(sched, flags), cal, flags);
}

// ------------------------------------------------------------------
// Compilation.
// ------------------------------------------------------------------

namespace
{

/** Suffix splice tables cost O(pulses^2) matrix products to build;
 *  trains longer than this (dense DD fills) fall back to an
 *  arithmetically identical sequential fold on the rare error shot. */
constexpr uint32_t kSuffixTablePulses = 64;

/** Fold pulses [from, to) from identity: the product the interpreter
 *  re-accumulates after a gate error. */
Matrix2
foldPulses(const std::vector<Pulse> &pulses, uint32_t from, uint32_t to)
{
    Matrix2 acc = Matrix2::identity();
    for (uint32_t j = from; j < to; j++)
        acc = pulses[j].matrix * acc;
    return acc;
}

} // namespace

ShotTables
buildShotTables(const ExecutionPlan &plan)
{
    ShotTables tables;
    tables.perStep.resize(plan.steps.size());
    for (size_t si = 0; si < plan.steps.size(); si++) {
        const PlanStep &step = plan.steps[si];
        ShotTables::StepRef &ref = tables.perStep[si];
        if (step.kind == PlanStep::Kind::Cond1Q) {
            ref.mat = static_cast<uint32_t>(tables.matrices.size());
            tables.matrices.push_back(step.pulses[0].matrix);
            continue;
        }
        if (step.kind != PlanStep::Kind::Fused1Q)
            continue;
        const auto k = static_cast<uint32_t>(step.pulses.size());

        // prefix[i] = fold of pulses 0..i, accumulated exactly like
        // the interpreter's running product (including the initial
        // multiply by identity).
        ref.mat = static_cast<uint32_t>(tables.matrices.size());
        Matrix2 acc = Matrix2::identity();
        for (const Pulse &pulse : step.pulses) {
            acc = pulse.matrix * acc;
            tables.matrices.push_back(acc);
        }

        // suffix[i] = fold of pulses i+1..end from identity — the
        // exact product the interpreter would re-accumulate after an
        // error at pulse i (O(k^2) to build, so capped).
        if (k <= kSuffixTablePulses) {
            ref.suffixOff = static_cast<uint32_t>(tables.matrices.size());
            for (uint32_t i = 0; i < k; i++)
                tables.matrices.push_back(foldPulses(step.pulses, i + 1, k));
        }
    }
    // Exact size: the table may live on in the program cache.
    tables.matrices.shrink_to_fit();
    return tables;
}

ShotProgram
bindShotProgram(const ExecutionPlan &plan, const ShotTables &tables,
                const Calibration &cal, const NoiseFlags &flags)
{
    ShotProgram prog;
    prog.numQubits = static_cast<int>(plan.active.size());
    prog.numClbits = plan.maxClbit + 1;
    prog.flags = flags;
    prog.matrices = tables.matrices;

    if (flags.ouDephasing) {
        prog.ouSigma.reserve(plan.active.size());
        for (QubitId q : plan.active) {
            prog.ouSigma.push_back(
                cal.qubits[static_cast<size_t>(q)].ouSigmaRadPerUs);
        }
    }

    // Compile-time mirror of the interpreter's per-qubit trackers.
    std::vector<TimeNs> last_end(plan.active.size(), -1.0);
    std::vector<double> ou_last_us(plan.active.size(), 0.0);

    // Append @p op to its payload pool and reference it from the
    // stream.
    auto pushOp = [&](OpRef::Kind kind, auto &pool, const auto &op) {
        pool.push_back(op);
        prog.ops.push_back({kind, static_cast<uint32_t>(pool.size()) - 1});
    };

    // Coherent (refocusable) idle noise over [t0, t1): mirrors
    // coherent_idle_noise in the interpreter, including its draw
    // conditions, with every shot-invariant value precomputed.
    auto emitCoherent = [&](int dq, TimeNs t0, TimeNs t1) {
        if (t1 - t0 <= 1e-9)
            return;
        const auto ai = static_cast<size_t>(dq);
        const double dt_us = (t1 - t0) * kNsToUs;

        CoherentOp c;
        c.q = dq;
        c.gapDtUs = dt_us;
        c.termsOff = static_cast<uint32_t>(prog.xtalkTerms.size());
        if (flags.crosstalk) {
            for (const CrosstalkSource &src : plan.xtalk[ai]) {
                prog.xtalkTerms.push_back(
                    src.radPerUs *
                    overlapUs(t0, t1, src.start, src.end));
            }
        }
        c.termsCnt = static_cast<uint32_t>(prog.xtalkTerms.size()) -
                     c.termsOff;

        if (flags.ouDephasing) {
            // Precompute the OU transition for this gap's midpoint.
            const double mid_us = (t0 + t1) / 2.0 * kNsToUs;
            require(mid_us >= ou_last_us[ai] - 1e-12,
                    "OU process sampled backwards in time");
            const double dt = std::max(0.0, mid_us - ou_last_us[ai]);
            if (dt > 0.0) {
                const auto &qc =
                    cal.qubits[static_cast<size_t>(plan.active[ai])];
                const double decay = ouDecayFactor(dt, qc.ouTauUs);
                c.ouKind = 2;
                c.ouDecay = decay;
                c.ouSd = ouInnovationSd(qc.ouSigmaRadPerUs, decay);
                ou_last_us[ai] = mid_us;
            } else {
                c.ouKind = 1;
            }
            pushOp(OpRef::Kind::Coherent, prog.coherent, c);
            return;
        }

        // OU disabled: the phase is shot-invariant.  Fold it here
        // with the interpreter's exact accumulation order.
        double phase = 0.0;
        for (uint32_t t = 0; t < c.termsCnt; t++)
            phase += prog.xtalkTerms[c.termsOff + t];
        if (phase == 0.0) {
            // The interpreter applies nothing and draws nothing.
            prog.xtalkTerms.resize(c.termsOff);
            return;
        }
        if (flags.twirlCoherent)
            c.twirlThresh = bernoulliThreshold(twirlZProbability(phase));
        else
            c.staticPhi = phase;
        pushOp(OpRef::Kind::Coherent, prog.coherent, c);
    };

    // Markovian noise over dt_us of wall-clock time: both flip
    // probabilities collapse to fixed-point thresholds.
    auto emitMarkov = [&](int dq, double dt_us) {
        if (dt_us <= 0.0)
            return;
        if (!flags.t1Damping && !flags.whiteDephasing)
            return;
        const auto &qc = cal.qubits[static_cast<size_t>(
            plan.active[static_cast<size_t>(dq)])];
        MarkovOp m;
        m.q = dq;
        if (flags.t1Damping) {
            m.t1Thresh = bernoulliThreshold(
                t1JumpProbability(dt_us, qc.t1Us));
        }
        if (flags.whiteDephasing) {
            m.dephThresh = bernoulliThreshold(
                whiteDephasingFlipProbability(dt_us, qc.t2WhiteUs));
        }
        pushOp(OpRef::Kind::Markov, prog.markov, m);
    };

    auto catchUp = [&](int dq, const PlanStep &step) {
        const auto ai = static_cast<size_t>(dq);
        if (last_end[ai] >= 0.0) {
            emitCoherent(dq, last_end[ai], step.start);
            emitMarkov(dq, (step.end - last_end[ai]) * kNsToUs);
        } else {
            emitMarkov(dq, (step.end - step.start) * kNsToUs);
        }
        last_end[ai] = step.end;
    };

    for (size_t si = 0; si < plan.steps.size(); si++) {
        const PlanStep &step = plan.steps[si];
        switch (step.kind) {
          case PlanStep::Kind::Meas: {
            catchUp(step.q, step);
            MeasOp m;
            m.q = step.q;
            m.clbit = step.clbit;
            m.thresh01 = bernoulliThreshold(step.err01);
            m.thresh10 = bernoulliThreshold(step.err10);
            m.retires = step.retires;
            pushOp(OpRef::Kind::Meas, prog.meas, m);
            break;
          }
          case PlanStep::Kind::Reset:
            catchUp(step.q, step);
            pushOp(OpRef::Kind::Reset, prog.resets, ResetOp{step.q});
            break;
          case PlanStep::Kind::Cond1Q: {
            catchUp(step.q, step);
            Cond1QOp c;
            c.q = step.q;
            c.condBit = step.condBit;
            c.mat = tables.perStep[si].mat;
            pushOp(OpRef::Kind::Cond1Q, prog.cond, c);
            break;
          }
          case PlanStep::Kind::TwoQubit: {
            catchUp(step.q, step);
            catchUp(step.q2, step);
            TwoQOp t;
            t.q = step.q;
            t.q2 = step.q2;
            t.type = step.twoQubitType;
            // The interpreter draws the error Bernoulli whenever gate
            // errors are enabled, even for a zero-error link, so a
            // threshold of 0 (consume, never fire) is not kNoDraw.
            if (flags.gateErrors)
                t.errThresh = bernoulliThreshold(step.cxError);
            pushOp(OpRef::Kind::TwoQ, prog.twoQ, t);
            break;
          }
          case PlanStep::Kind::Fused1Q: {
            catchUp(step.q, step);
            const auto k = static_cast<uint32_t>(step.pulses.size());
            Fused1QOp f;
            f.q = step.q;
            f.step = static_cast<uint32_t>(si);
            f.pulseCnt = k;

            // The splice tables (prefix, full, optional suffix
            // products) were built once with the skeleton; only their
            // offsets are stamped here.
            f.prefixOff = tables.perStep[si].mat;
            f.fullMat = f.prefixOff + k - 1;
            f.suffixOff = tables.perStep[si].suffixOff;

            f.errOff = static_cast<uint32_t>(prog.errChecks.size());
            if (flags.gateErrors) {
                for (uint32_t i = 0; i < k; i++) {
                    // The interpreter short-circuits on errorProb > 0
                    // before drawing, so zero-probability pulses
                    // consume no RNG word at all.
                    if (step.pulses[i].errorProb > 0.0) {
                        prog.errChecks.push_back(
                            {i, bernoulliThreshold(
                                    step.pulses[i].errorProb)});
                    }
                }
            }
            f.errCnt =
                static_cast<uint32_t>(prog.errChecks.size()) - f.errOff;
            pushOp(OpRef::Kind::Fused1Q, prog.fused, f);
            break;
          }
        }
    }
    return prog;
}

ShotProgram
compileShotProgram(const ExecutionPlan &plan, const Calibration &cal,
                   const NoiseFlags &flags)
{
    return bindShotProgram(plan, buildShotTables(plan), cal, flags);
}

// ------------------------------------------------------------------
// Frame-program compilation (stabilizer batch path).
// ------------------------------------------------------------------

namespace
{

/**
 * GL(2, F2) action of a Clifford on a Pauli frame's (x, z) bits,
 * stored as the images of the X and Z basis frames (signs dropped —
 * a frame's global phase never reaches an outcome).
 */
struct FrameMat
{
    uint8_t xx, xz; //!< image of X: (x bit, z bit)
    uint8_t zx, zz; //!< image of Z
};

constexpr FrameMat kFrameIdentity{1, 0, 0, 1};
constexpr FrameMat kFrameSwap{0, 1, 1, 0};     // H-like
constexpr FrameMat kFramePhase{1, 1, 0, 1};    // S-like: X -> Y
constexpr FrameMat kFrameHalfX{1, 0, 1, 1};    // SX-like: Z -> Y

inline bool
isFrameIdentity(FrameMat m)
{
    return m.xx == 1 && m.xz == 0 && m.zx == 0 && m.zz == 1;
}

/** Composition "apply @p first, then @p second". */
inline FrameMat
composeFrame(FrameMat second, FrameMat first)
{
    FrameMat r;
    r.xx = (first.xx & second.xx) ^ (first.xz & second.zx);
    r.xz = (first.xx & second.xz) ^ (first.xz & second.zz);
    r.zx = (first.zx & second.xx) ^ (first.zz & second.zx);
    r.zz = (first.zx & second.xz) ^ (first.zz & second.zz);
    return r;
}

/** Frame action of the named single-qubit Clifford generators (the
 *  realization alphabet of clifford1QGroup). */
FrameMat
frameMatOfNamed(GateType type)
{
    switch (type) {
      case GateType::I:
      case GateType::X:
      case GateType::Y:
      case GateType::Z:
        return kFrameIdentity; // Paulis act trivially up to sign
      case GateType::H:
        return kFrameSwap;
      case GateType::S:
      case GateType::Sdg:
        return kFramePhase;
      case GateType::SX:
      case GateType::SXdg:
        return kFrameHalfX;
      default:
        panic("frameMatOfNamed: " + gateName(type) +
              " is not a named 1Q Clifford generator");
    }
}

/** Frame action of any single-qubit Clifford gate instance,
 *  mirroring StabilizerState::applyGate's dispatch. */
FrameMat
frameMatOfGate(const Gate &gate)
{
    switch (gate.type) {
      case GateType::Barrier:
      case GateType::Delay:
        // Timing markers, not unitaries (buildPlan filters them out
        // of pulse trains today; identity keeps this total if that
        // ever changes).
        return kFrameIdentity;
      case GateType::I:
      case GateType::X:
      case GateType::Y:
      case GateType::Z:
      case GateType::H:
      case GateType::S:
      case GateType::Sdg:
      case GateType::SX:
      case GateType::SXdg:
        return frameMatOfNamed(gate.type);
      case GateType::RZ:
      case GateType::U1:
        switch (cliffordQuarterTurns(gate.params[0])) {
          case 1:
          case 3: return kFramePhase;
          default: return kFrameIdentity;
        }
      case GateType::RX:
        switch (cliffordQuarterTurns(gate.params[0])) {
          case 1:
          case 3: return kFrameHalfX;
          default: return kFrameIdentity;
        }
      case GateType::RY:
        switch (cliffordQuarterTurns(gate.params[0])) {
          case 1:
          case 3: return kFrameSwap;
          default: return kFrameIdentity;
        }
      case GateType::Measure:
        panic("frameMatOfGate cannot map Measure");
      default: {
        if (!gate.isClifford())
            fatal("frameMatOfGate on non-Clifford gate " +
                  gate.toString());
        const Clifford1Q &element =
            nearestClifford(gateMatrix(gate));
        require(unitaryDistance(gateMatrix(gate), element.matrix) <
                    1e-6,
                "Clifford gate not found in group table");
        FrameMat acc = kFrameIdentity;
        for (GateType g : element.gates)
            acc = composeFrame(frameMatOfNamed(g), acc);
        return acc;
      }
    }
}

/** Plane-transform class of a non-identity FrameMat. */
Frame1QKind
classifyFrameMat(FrameMat m)
{
    if (m.xx == 0 && m.xz == 1 && m.zx == 1 && m.zz == 0)
        return Frame1QKind::Hadamard;
    if (m.xx == 1 && m.xz == 1 && m.zx == 0 && m.zz == 1)
        return Frame1QKind::Phase;
    if (m.xx == 1 && m.xz == 0 && m.zx == 1 && m.zz == 1)
        return Frame1QKind::HalfX;
    if (m.xx == 0 && m.xz == 1 && m.zx == 1 && m.zz == 1)
        return Frame1QKind::CycleA;
    if (m.xx == 1 && m.xz == 1 && m.zx == 1 && m.zz == 0)
        return Frame1QKind::CycleB;
    panic("classifyFrameMat: singular or identity frame matrix");
}

/** Image of Pauli @p pauli (engine packing 1 = X, 2 = Y, 3 = Z)
 *  under conjugation by the Clifford with frame matrix @p m. */
uint8_t
mapPauliThrough(FrameMat m, int pauli)
{
    const uint8_t px = pauli == 1 || pauli == 2;
    const uint8_t pz = pauli == 2 || pauli == 3;
    const uint8_t ox = (px & m.xx) ^ (pz & m.zx);
    const uint8_t oz = (px & m.xz) ^ (pz & m.zz);
    if (ox && oz)
        return 2;
    if (ox)
        return 1;
    require(oz, "mapPauliThrough produced the identity");
    return 3;
}

/** Append a branch-flip support (X-qubit list, then Z-qubit list) to
 *  @p qubits and return its spans. */
FrameFlip
recordFlipSupport(std::vector<int> &qubits,
                  const std::vector<QubitId> &flip_x,
                  const std::vector<QubitId> &flip_z)
{
    FrameFlip flip;
    flip.xOff = static_cast<uint32_t>(qubits.size());
    flip.xCnt = static_cast<uint32_t>(flip_x.size());
    qubits.insert(qubits.end(), flip_x.begin(), flip_x.end());
    flip.zOff = static_cast<uint32_t>(qubits.size());
    flip.zCnt = static_cast<uint32_t>(flip_z.size());
    qubits.insert(qubits.end(), flip_z.begin(), flip_z.end());
    return flip;
}

/**
 * The frame compiler's one reference walk: classify each
 * reference-dependent op of prog.ops[from ..) against @p ref (with its
 * recorded clbits @p refCl) as it stands before the op, then advance
 * past the op (walkFrameReference).  T1 checkpoints are classified
 * only when the job has a T1 channel (@p t1).  A program's own
 * classes walk from |0...0>, a branch tail's from its jumped
 * reference.
 */
FrameClasses
classifyFrameOps(const FrameProgram &prog, uint32_t from, bool t1,
                 StabilizerState ref, std::vector<uint8_t> refCl)
{
    FrameClasses cls;
    std::vector<QubitId> flip_x, flip_z;
    for (uint32_t oi = from; oi < prog.ops.size(); oi++) {
        const FrameOpRef op = prog.ops[oi];
        switch (op.kind) {
          case FrameOpRef::Kind::Markov: {
            FrameClasses::Markov &c = cls.markov.emplace_back();
            if (!t1)
                break;
            const int q = prog.markov[op.idx].q;
            const double p1 = ref.populationOne(q);
            c.t1Ref = p1 == 0.5 ? 2 : p1 == 1.0 ? 1 : 0;
            if (c.t1Ref == 2) {
                const bool sup = ref.measureFlipSupport(q, flip_x, flip_z);
                require(sup, "superposed T1 checkpoint with a "
                             "deterministic Z measurement");
                c.flip = recordFlipSupport(cls.flipQubits, flip_x, flip_z);
            }
            break;
          }
          case FrameOpRef::Kind::Meas:
          case FrameOpRef::Kind::Reset: {
            const bool meas = op.kind == FrameOpRef::Kind::Meas;
            const int q = meas ? prog.meas[op.idx].q : prog.resets[op.idx].q;
            FrameClasses::Collapse &c =
                (meas ? cls.meas : cls.resets).emplace_back();
            c.random = ref.measureFlipSupport(q, flip_x, flip_z);
            if (c.random)
                c.flip = recordFlipSupport(cls.flipQubits, flip_x, flip_z);
            else
                c.refBit = ref.populationOne(q) == 1.0 ? 1 : 0;
            break;
          }
          case FrameOpRef::Kind::Cond:
            cls.condRef.push_back(refCl[static_cast<size_t>(
                prog.cond[op.idx].condBit)]);
            break;
          default:
            break; // reference-independent
        }
        walkFrameReference(prog, ref, refCl, oi, oi + 1);
    }
    // Each kind's classes cover the suffix of its array that
    // prog.ops[from ..) references.
    const auto base = [](const auto &all, const auto &mine) {
        return static_cast<uint32_t>(all.size() - mine.size());
    };
    cls.markovBase = base(prog.markov, cls.markov);
    cls.measBase = base(prog.meas, cls.meas);
    cls.resetBase = base(prog.resets, cls.resets);
    cls.condBase = base(prog.cond, cls.condRef);
    return cls;
}

} // namespace

FrameProgram
buildFrameSkeleton(const ExecutionPlan &plan, const NoiseFlags &flags)
{
    require(plan.clifford,
            "frame program requires an all-Clifford executable");
    require(flags.pauliExpressible(),
            "frame program requires Pauli-expressible noise");
    require(!flags.ouDephasing,
            "frame program does not cover per-shot OU twirl draws; "
            "keep OU jobs on the per-shot stabilizer backend");
    require(!plan.condNonPauli,
            "frame program requires conditional gates to act as "
            "Paulis");

    FrameProgram prog;
    prog.numQubits = static_cast<int>(plan.active.size());
    prog.numClbits = plan.maxClbit + 1;
    prog.pulseErr.resize(plan.active.size());

    // Append @p op to its payload pool and reference it from the
    // stream.
    auto pushOp = [&](FrameOpRef::Kind kind, auto &pool, const auto &op) {
        pool.push_back(op);
        prog.ops.push_back(
            {kind, static_cast<uint32_t>(pool.size()) - 1});
    };

    // Idle noise on @p dq up to the end of @p step, under the
    // interpreter's conditions: the static crosstalk twirl over the
    // gap since the qubit's last step (with OU excluded the phase is
    // shot-invariant; the bind folds it), then Markovian noise over
    // the wall-clock interval.
    std::vector<TimeNs> last_end(plan.active.size(), -1.0);
    auto catchUp = [&](int dq, const PlanStep &step) {
        TimeNs &last = last_end[static_cast<size_t>(dq)];
        if (last >= 0.0 && flags.crosstalk && step.start - last > 1e-9) {
            pushOp(FrameOpRef::Kind::Twirl, prog.twirl,
                   FrameTwirlOp{.q = dq, .gapStart = last,
                                .gapEnd = step.start});
        }
        const double dt_us =
            (step.end - (last >= 0.0 ? last : step.start)) * kNsToUs;
        if (dt_us > 0.0 && (flags.t1Damping || flags.whiteDephasing)) {
            pushOp(FrameOpRef::Kind::Markov, prog.markov,
                   FrameMarkovOp{.q = dq, .dtUs = dt_us});
        }
        last = step.end;
    };

    std::vector<FrameMat> suffix;
    for (size_t si = 0; si < plan.steps.size(); si++) {
        const PlanStep &step = plan.steps[si];
        catchUp(step.q, step);
        switch (step.kind) {
          case PlanStep::Kind::Meas:
            pushOp(FrameOpRef::Kind::Meas, prog.meas,
                   FrameMeasOp{.q = step.q, .clbit = step.clbit});
            break;
          case PlanStep::Kind::TwoQubit:
            catchUp(step.q2, step);
            pushOp(FrameOpRef::Kind::F2Q, prog.f2q,
                   Frame2QOp{step.q, step.q2, step.twoQubitType});
            if (flags.gateErrors) {
                pushOp(FrameOpRef::Kind::Err2Q, prog.err2q,
                       FrameErr2QOp{.a = step.q, .b = step.q2,
                                    .step = static_cast<uint32_t>(si)});
            }
            break;
          case PlanStep::Kind::Fused1Q: {
            const size_t k = step.pulses.size();

            // suffix[i] = frame action of pulses i+1 .. k-1: the
            // conjugation a mid-train error travels through once the
            // train is fused into a single transform.
            suffix.assign(k, kFrameIdentity);
            for (size_t i = k - 1; i > 0; i--) {
                suffix[i - 1] = composeFrame(
                    suffix[i], frameMatOfGate(step.pulses[i].gate));
            }
            const FrameMat full = composeFrame(
                suffix[0], frameMatOfGate(step.pulses[0].gate));

            // The train's Clifford product up to global phase, as a
            // named-gate realization: the exact tableau continuation
            // needs it even when the frame action is the identity (a
            // Pauli train — DD padding — still flips tableau signs).
            Matrix2 product = Matrix2::identity();
            for (const Pulse &pulse : step.pulses)
                product = pulse.matrix * product;
            const Clifford1Q &element = nearestClifford(product);
            require(unitaryDistance(product, element.matrix) < 1e-6,
                    "fused Clifford train not found in group table");

            Frame1QOp op;
            op.q = step.q;
            op.kind = isFrameIdentity(full) ? Frame1QKind::Identity
                                            : classifyFrameMat(full);
            FrameMat check = kFrameIdentity;
            for (GateType g : element.gates) {
                if (g == GateType::I)
                    continue;
                require(op.namedCount < op.named.size(),
                        "Clifford realization longer than the "
                        "Frame1QOp named-gate capacity");
                op.named[op.namedCount++] = g;
                check = composeFrame(frameMatOfNamed(g), check);
            }
            require(check.xx == full.xx && check.xz == full.xz &&
                        check.zx == full.zx && check.zz == full.zz,
                    "realization frame action diverged from the "
                    "fused train");
            if (op.kind != Frame1QKind::Identity || op.namedCount != 0)
                pushOp(FrameOpRef::Kind::F1Q, prog.f1q, op);

            // One Err1Q op for the train: the suffix images of every
            // physical pulse (the pulses that carry the calibration's
            // gate-error channel).
            if (!flags.gateErrors)
                break;
            FrameErr1QOp e;
            e.q = step.q;
            e.errOff = static_cast<uint32_t>(prog.errMapped.size());
            for (size_t i = 0; i < k; i++) {
                if (!step.pulses[i].physical)
                    continue;
                std::array<uint8_t, 3> &mapped =
                    prog.errMapped.emplace_back();
                for (int p = 1; p <= 3; p++) {
                    mapped[static_cast<size_t>(p - 1)] =
                        mapPauliThrough(suffix[i], p);
                }
            }
            e.errCnt =
                static_cast<uint32_t>(prog.errMapped.size()) - e.errOff;
            if (e.errCnt > 0)
                pushOp(FrameOpRef::Kind::Err1Q, prog.err1q, e);
            break;
          }
          case PlanStep::Kind::Reset:
            pushOp(FrameOpRef::Kind::Reset, prog.resets,
                   FrameResetOp{step.q});
            break;
          case PlanStep::Kind::Cond1Q: {
            const int code = condPauliCode(step.pulses[0].gate);
            require(code >= 0, "conditional non-Pauli gate reached "
                               "the frame compiler");
            if (code == 0)
                break; // conditional identity: timing only
            pushOp(FrameOpRef::Kind::Cond, prog.cond,
                   FrameCondOp{step.q, step.condBit,
                               static_cast<uint8_t>(code)});
            break;
          }
        }
    }

    // The noiseless reference from |0...0>: everything it decides
    // depends only on the circuit structure, never on calibration
    // constants, so it is decided once per skeleton.
    prog.classes = classifyFrameOps(
        prog, 0, flags.t1Damping, StabilizerState(prog.numQubits),
        std::vector<uint8_t>(static_cast<size_t>(prog.numClbits), 0));
    for (const FrameClasses::Markov &c : prog.classes.markov)
        prog.randomT1Count += c.t1Ref == 2 ? 1 : 0;

    // Exact size: the skeleton may live on in the program cache.
    const auto exact = [](auto &...v) { (v.shrink_to_fit(), ...); };
    FrameClasses &cls = prog.classes;
    exact(prog.ops, prog.f1q, prog.f2q, prog.err1q, prog.err2q,
          prog.markov, prog.twirl, prog.meas, prog.resets, prog.cond,
          prog.errMapped, cls.markov, cls.meas, cls.resets, cls.condRef,
          cls.flipQubits);
    return prog;
}

FrameProgram
bindFrameProgram(const ExecutionPlan &plan, const FrameProgram &skel,
                 const Calibration &cal, const NoiseFlags &flags)
{
    FrameProgram prog = skel;
    const auto qubitCal = [&](int dq) -> const QubitCalibration & {
        return cal.qubits[static_cast<size_t>(
            plan.active[static_cast<size_t>(dq)])];
    };
    for (size_t i = 0; i < prog.markov.size(); i++) {
        FrameMarkovOp &m = prog.markov[i];
        const QubitCalibration &qc = qubitCal(m.q);
        if (flags.t1Damping) {
            // A superposed reference fires with the folded rate
            // gamma * 1/2 and hands the lane to a branch tail.
            const double gamma = t1JumpProbability(m.dtUs, qc.t1Us);
            m.gammaThresh = bernoulliThreshold(gamma);
            m.halfGammaThresh = bernoulliThreshold(gamma * 0.5);
            m.t1 = makeFrameBernoulli(
                prog.classes.markov[i].t1Ref == 2 ? gamma * 0.5 : gamma);
        }
        if (flags.whiteDephasing) {
            m.deph = makeFrameBernoulli(
                whiteDephasingFlipProbability(m.dtUs, qc.t2WhiteUs));
        }
    }
    // The twirled crosstalk phase, in the interpreter's accumulation
    // order (a zero phase binds Never).
    for (FrameTwirlOp &t : prog.twirl) {
        double phase = 0.0;
        for (const CrosstalkSource &src :
             plan.xtalk[static_cast<size_t>(t.q)]) {
            phase += src.radPerUs *
                     overlapUs(t.gapStart, t.gapEnd, src.start, src.end);
        }
        t.prob = makeFrameBernoulli(twirlZProbability(phase));
    }
    if (flags.measurementErrors) {
        for (FrameMeasOp &m : prog.meas) {
            m.err01 = makeFrameBernoulli(qubitCal(m.q).readoutError01);
            m.err10 = makeFrameBernoulli(qubitCal(m.q).readoutError10);
        }
    }
    for (FrameErr2QOp &e : prog.err2q)
        e.prob = makeFrameBernoulli(plan.steps[e.step].cxError);
    for (size_t dq = 0; dq < prog.pulseErr.size(); dq++) {
        prog.pulseErr[dq] =
            makeFrameBernoulli(qubitCal(static_cast<int>(dq)).gateError1Q);
    }
    return prog;
}

FrameTail
compileFrameTail(const FrameProgram &root, uint32_t site)
{
    require(site < root.ops.size() &&
                root.ops[site].kind == FrameOpRef::Kind::Markov &&
                root.classes.markov[root.ops[site].idx].t1Ref == 2,
            "compileFrameTail: op is not a superposed T1 checkpoint");
    const int q = root.markov[root.ops[site].idx].q;

    // The jumped reference: the root reference advanced to the
    // checkpoint, the excited branch postselected, and the decay jump
    // landing it in |0>.
    StabilizerState ref(root.numQubits);
    std::vector<uint8_t> refCl(static_cast<size_t>(root.numClbits), 0);
    walkFrameReference(root, ref, refCl, 0, site);
    ref.applyDecayJump(q);

    FrameTail tail(ref);
    tail.refCl = refCl;
    tail.start = site + 1;
    // A superposed T1 checkpoint exists only with a T1 channel.
    tail.classes = classifyFrameOps(root, tail.start, /*t1=*/true,
                                    std::move(ref), std::move(refCl));
    return tail;
}

const FrameTail &
FrameTailCache::tail(const FrameProgram &root, uint32_t site)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = tails_.find(site);
        if (it != tails_.end())
            return it->second;
    }
    // Compile outside the lock: deterministic output makes a racing
    // double-compile benign, and try_emplace keeps the first copy.
    FrameTail compiled = compileFrameTail(root, site);
    std::lock_guard<std::mutex> lock(mu_);
    return tails_.try_emplace(site, std::move(compiled)).first->second;
}

size_t
FrameTailCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return tails_.size();
}

// ------------------------------------------------------------------
// Per-shot execution.
// ------------------------------------------------------------------

ShotReplayer::ShotReplayer(const ExecutionPlan &plan,
                           const ShotProgram &prog)
    : plan_(plan), prog_(prog), sv_(prog.numQubits),
      packer_(prog.numClbits),
      qubitRng_(static_cast<size_t>(prog.numQubits)),
      ouVal_(static_cast<size_t>(prog.numQubits), 0.0)
{
}

uint64_t
ShotReplayer::runShot(const Rng &shot_rng)
{
    const NoiseFlags &flags = prog_.flags;
    gateRng_ = shot_rng.fork(0x6a7e);
    const auto n = static_cast<size_t>(prog_.numQubits);
    for (size_t ai = 0; ai < n; ai++) {
        qubitRng_[ai] = shot_rng.fork(0x0b5e + ai);
        if (flags.ouDephasing) {
            // Stationary initial draw (OuProcess constructor).
            ouVal_[ai] = qubitRng_[ai].normal(0.0, prog_.ouSigma[ai]);
        }
    }
    sv_.reset();
    svBit_ = plan_.svBit;
    packer_.clear();
    // Ops name dense qubits; the state is addressed by this shot's bit
    // table (join order, shifted by every retiring Meas).
    const int *bit = svBit_.data();

    for (const OpRef ref : prog_.ops) {
        switch (ref.kind) {
          case OpRef::Kind::Coherent: {
            const CoherentOp &c = prog_.coherent[ref.idx];
            const auto ai = static_cast<size_t>(c.q);
            Rng &rng = qubitRng_[ai];
            if (c.ouKind == 0) {
                // Static: the phase, or its twirl threshold, is
                // precomputed (and never zero).
                if (c.twirlThresh == kNoDraw)
                    sv_.applyPhase(bit[c.q], c.staticPhi);
                else if ((rng.next() >> 11) < c.twirlThresh)
                    sv_.apply1Q(pauliMatrix(3), bit[c.q]);
                break;
            }
            if (c.ouKind == 2)
                ouVal_[ai] = ouVal_[ai] * c.ouDecay + rng.normal(0.0, c.ouSd);
            double phase = 0.0;
            phase += ouVal_[ai] * c.gapDtUs;
            for (uint32_t t = 0; t < c.termsCnt; t++)
                phase += prog_.xtalkTerms[c.termsOff + t];
            if (phase == 0.0)
                break;
            if (!flags.twirlCoherent)
                sv_.applyPhase(bit[c.q], phase);
            else if (rng.bernoulli(twirlZProbability(phase)))
                sv_.apply1Q(pauliMatrix(3), bit[c.q]);
            break;
          }
          case OpRef::Kind::Markov: {
            const MarkovOp &m = prog_.markov[ref.idx];
            Rng &rng = qubitRng_[static_cast<size_t>(m.q)];
            // The population word is drawn only when the jump check
            // fires, as the interpreter's && short-circuit does.
            if (m.t1Thresh != kNoDraw &&
                (rng.next() >> 11) < m.t1Thresh &&
                rng.bernoulli(sv_.populationOne(bit[m.q])))
                sv_.applyDecayJump(bit[m.q]);
            if (m.dephThresh != kNoDraw &&
                (rng.next() >> 11) < m.dephThresh)
                sv_.apply1Q(pauliMatrix(3), bit[m.q]);
            break;
          }
          case OpRef::Kind::Fused1Q: {
            const Fused1QOp &f = prog_.fused[ref.idx];
            const int b = bit[f.q];
            // Error splice: prefix · Pauli · (segments) · suffix, every
            // product bit-identical to the interpreter's running
            // accumulation.  `next` is the first pulse not yet applied.
            uint32_t next = 0;
            for (uint32_t e = 0; e < f.errCnt; e++) {
                const PulseErrCheck &chk = prog_.errChecks[f.errOff + e];
                if ((gateRng_.next() >> 11) >= chk.thresh)
                    continue;
                const auto pauli =
                    static_cast<int>(gateRng_.uniformInt(3)) + 1;
                if (next == 0) {
                    sv_.apply1Q(prog_.matrices[f.prefixOff + chk.pulse], b);
                } else {
                    sv_.apply1Q(foldPulses(plan_.steps[f.step].pulses,
                                           next, chk.pulse + 1),
                                b);
                }
                sv_.apply1Q(pauliMatrix(pauli), b);
                next = chk.pulse + 1;
            }
            if (next == 0) {
                sv_.apply1Q(prog_.matrices[f.fullMat], b);
            } else if (f.suffixOff != kNoTable) {
                sv_.apply1Q(prog_.matrices[f.suffixOff + next - 1], b);
            } else {
                sv_.apply1Q(foldPulses(plan_.steps[f.step].pulses, next,
                                       f.pulseCnt),
                            b);
            }
            break;
          }
          case OpRef::Kind::TwoQ: {
            const TwoQOp &t = prog_.twoQ[ref.idx];
            switch (t.type) {
              case GateType::CX: sv_.applyCX(bit[t.q], bit[t.q2]); break;
              case GateType::CZ: sv_.applyCZ(bit[t.q], bit[t.q2]); break;
              case GateType::SWAP: sv_.applySwap(bit[t.q], bit[t.q2]); break;
              default:
                panic("compiled replay: unexpected two-qubit gate");
            }
            if (t.errThresh != kNoDraw &&
                (gateRng_.next() >> 11) < t.errThresh) {
                const auto code =
                    static_cast<int>(gateRng_.uniformInt(15)) + 1;
                if ((code & 3) != 0)
                    sv_.apply1Q(pauliMatrix(code & 3), bit[t.q]);
                if ((code >> 2) != 0)
                    sv_.apply1Q(pauliMatrix(code >> 2), bit[t.q2]);
            }
            break;
          }
          case OpRef::Kind::Meas: {
            // The collapse word, then (under measurement errors) the
            // readout word, both from the gate stream.
            const MeasOp &m = prog_.meas[ref.idx];
            bool outcome;
            if (m.retires) {
                outcome = sv_.measureRetire(bit[m.q], gateRng_);
                retireBit(svBit_, m.q);
            } else {
                outcome = sv_.measureCollapse(bit[m.q], gateRng_);
            }
            if (flags.measurementErrors &&
                (gateRng_.next() >> 11) <
                    (outcome ? m.thresh10 : m.thresh01))
                outcome = !outcome;
            packer_.set(m.clbit, outcome);
            break;
          }
          case OpRef::Kind::Reset: {
            const ResetOp &r = prog_.resets[ref.idx];
            if (sv_.measureCollapse(bit[r.q], gateRng_))
                sv_.apply1Q(pauliMatrix(1), bit[r.q]);
            break;
          }
          case OpRef::Kind::Cond1Q: {
            const Cond1QOp &c = prog_.cond[ref.idx];
            if (packer_.get(c.condBit))
                sv_.apply1Q(prog_.matrices[c.mat], bit[c.q]);
            break;
          }
        }
    }
    return packer_.key();
}

int64_t
ShotReplayer::runBlock(const Rng &base, int64_t first_shot,
                       int64_t count, FlatAccumulator &hist,
                       const CancellationToken *token)
{
    // Every shot forks its streams from (base, absolute index) alone,
    // so stopping after any shot leaves a prefix bit-identical to the
    // same shots of an uninterrupted run; the token check costs one
    // atomic load (plus a clock read when a deadline is armed) against
    // microseconds of state-vector work per shot.
    int64_t done = 0;
    for (; done < count; done++) {
        if (token != nullptr && token->stopRequested())
            break;
        const Rng shot_rng = base.fork(
            static_cast<uint64_t>(first_shot + done) + 1);
        hist.add(runShot(shot_rng), 1.0);
    }
    return done;
}

} // namespace adapt
