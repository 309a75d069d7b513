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
    steps.reserve(sched.ops().size());
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
            for (uint32_t i = 0; i < k; i++) {
                Matrix2 tail = Matrix2::identity();
                for (uint32_t j = i + 1; j < k; j++)
                    tail = step.pulses[j].matrix * tail;
                tables.matrices.push_back(tail);
            }
        }
    }
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

    auto pushOp = [&](OpRef::Kind kind, uint32_t idx, bool fast) {
        prog.ops.push_back({kind, idx});
        if (fast)
            prog.fastOps.push_back({kind, idx});
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
            const bool twirl = flags.twirlCoherent;
            if (!twirl)
                c.phaseSlot = prog.phaseSlots++;
            prog.coherent.push_back(c);
            pushOp(OpRef::Kind::Coherent,
                   static_cast<uint32_t>(prog.coherent.size()) - 1,
                   /*fast=*/!twirl);
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
        if (flags.twirlCoherent) {
            c.twirlThresh =
                bernoulliThreshold(twirlZProbability(phase));
            prog.coherent.push_back(c);
            pushOp(OpRef::Kind::Coherent,
                   static_cast<uint32_t>(prog.coherent.size()) - 1,
                   /*fast=*/false);
        } else {
            c.staticPhi = phase;
            prog.coherent.push_back(c);
            pushOp(OpRef::Kind::Coherent,
                   static_cast<uint32_t>(prog.coherent.size()) - 1,
                   /*fast=*/true);
        }
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
        prog.markov.push_back(m);
        pushOp(OpRef::Kind::Markov,
               static_cast<uint32_t>(prog.markov.size()) - 1,
               /*fast=*/false);
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
            m.wordSlot = prog.measSlots++;
            m.thresh01 = bernoulliThreshold(step.err01);
            m.thresh10 = bernoulliThreshold(step.err10);
            prog.meas.push_back(m);
            pushOp(OpRef::Kind::Meas,
                   static_cast<uint32_t>(prog.meas.size()) - 1,
                   /*fast=*/true);
            break;
          }
          case PlanStep::Kind::Reset: {
            catchUp(step.q, step);
            ResetOp r;
            r.q = step.q;
            r.wordSlot = prog.measSlots++;
            prog.resets.push_back(r);
            pushOp(OpRef::Kind::Reset,
                   static_cast<uint32_t>(prog.resets.size()) - 1,
                   /*fast=*/true);
            break;
          }
          case PlanStep::Kind::Cond1Q: {
            catchUp(step.q, step);
            Cond1QOp c;
            c.q = step.q;
            c.condBit = step.condBit;
            c.mat = tables.perStep[si].mat;
            prog.cond.push_back(c);
            pushOp(OpRef::Kind::Cond1Q,
                   static_cast<uint32_t>(prog.cond.size()) - 1,
                   /*fast=*/true);
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
            prog.twoQ.push_back(t);
            pushOp(OpRef::Kind::TwoQ,
                   static_cast<uint32_t>(prog.twoQ.size()) - 1,
                   /*fast=*/true);
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

            prog.fused.push_back(f);
            pushOp(OpRef::Kind::Fused1Q,
                   static_cast<uint32_t>(prog.fused.size()) - 1,
                   /*fast=*/true);
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

} // namespace

FrameSkeleton
buildFrameSkeleton(const ExecutionPlan &plan, const NoiseFlags &flags,
                   int branch_depth)
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

    FrameSkeleton skel;
    skel.branchDepth = branch_depth;

    // The noiseless reference simulation: advanced through the plan
    // in step order.  Everything it answers — measurement outcomes,
    // branch-flip Paulis, T1-checkpoint populations — depends only on
    // the circuit structure, never on calibration constants, so the
    // walk runs once per skeleton and its answers are recorded as
    // traces the bind phase replays against any device snapshot.
    StabilizerState ref(static_cast<int>(plan.active.size()));

    // The reference's recorded classical bits, updated at every
    // measurement (readout errors never apply to the noiseless
    // reference): conditional ops resolve against these, and the
    // reference *takes* the conditional branch its own bits select,
    // so later outcomes and populations see it.
    std::vector<uint8_t> refCl(
        static_cast<size_t>(plan.maxClbit + 1), 0);

    std::vector<TimeNs> last_end(plan.active.size(), -1.0);
    std::vector<QubitId> flip_x, flip_z;

    // One trace per Markov window the bind phase will consider, in
    // emission order: the gate conditions here are the exact
    // structure-only guards bindFrameProgram re-evaluates, so the
    // cursors stay in lock-step.
    auto traceMarkov = [&](int dq, double dt_us) {
        if (dt_us <= 0.0)
            return;
        if (!flags.t1Damping && !flags.whiteDephasing)
            return;
        FrameSkeleton::T1Trace trace;
        if (flags.t1Damping) {
            const double p1 = ref.populationOne(dq);
            if (p1 == 0.5) {
                trace.t1Ref = 2;
                if (skel.branchDepth > 0) {
                    const bool sup =
                        ref.measureFlipSupport(dq, flip_x, flip_z);
                    require(sup, "superposed T1 checkpoint with a "
                                 "deterministic Z measurement");
                    trace.flipX = flip_x;
                    trace.flipZ = flip_z;
                }
            } else {
                trace.t1Ref = p1 == 1.0 ? 1 : 0;
            }
        }
        skel.t1.push_back(std::move(trace));
    };

    auto catchUp = [&](int dq, const PlanStep &step) {
        const auto ai = static_cast<size_t>(dq);
        if (last_end[ai] >= 0.0) {
            // Coherent idle noise never queries the reference:
            // nothing to trace for it.
            traceMarkov(dq, (step.end - last_end[ai]) * kNsToUs);
        } else {
            traceMarkov(dq, (step.end - step.start) * kNsToUs);
        }
        last_end[ai] = step.end;
    };

    std::vector<FrameMat> suffix;

    for (const PlanStep &step : plan.steps) {
        switch (step.kind) {
          case PlanStep::Kind::Meas: {
            catchUp(step.q, step);
            FrameSkeleton::MeasTrace trace;
            trace.random =
                ref.measureFlipSupport(step.q, flip_x, flip_z);
            if (trace.random) {
                // Fix the reference on the outcome-0 branch; each
                // shot re-randomizes with a fresh coin, so the choice
                // is arbitrary (and keeps compilation seed-free).
                trace.refBit = 0;
                trace.flipX = flip_x;
                trace.flipZ = flip_z;
                ref.postselect(step.q, false);
            } else {
                trace.refBit =
                    ref.populationOne(step.q) == 1.0 ? 1 : 0;
            }
            refCl[static_cast<size_t>(step.clbit)] = trace.refBit;
            skel.meas.push_back(std::move(trace));
            break;
          }
          case PlanStep::Kind::TwoQubit: {
            catchUp(step.q, step);
            catchUp(step.q2, step);
            ref.applyGate(Gate(step.twoQubitType, {step.q, step.q2}));
            break;
          }
          case PlanStep::Kind::Fused1Q: {
            catchUp(step.q, step);
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
            // named-gate realization: the deferred-lane tableau
            // replay needs it even when the frame action is the
            // identity (a Pauli train — DD padding — still flips
            // tableau signs).
            Matrix2 product = Matrix2::identity();
            for (const Pulse &pulse : step.pulses)
                product = pulse.matrix * product;
            const Clifford1Q &element = nearestClifford(product);
            require(unitaryDistance(product, element.matrix) < 1e-6,
                    "fused Clifford train not found in group table");

            FrameSkeleton::FusedTrace trace;
            trace.kind = isFrameIdentity(full)
                             ? Frame1QKind::Identity
                             : classifyFrameMat(full);
            FrameMat check = kFrameIdentity;
            for (GateType g : element.gates) {
                if (g == GateType::I)
                    continue;
                require(trace.namedCount < trace.named.size(),
                        "Clifford realization longer than the "
                        "Frame1QOp named-gate capacity");
                trace.named[trace.namedCount++] = g;
                check = composeFrame(frameMatOfNamed(g), check);
            }
            require(check.xx == full.xx && check.xz == full.xz &&
                        check.zx == full.zx && check.zz == full.zz,
                    "realization frame action diverged from the "
                    "fused train");

            // Suffix-conjugated Pauli images for every pulse: the
            // bind phase selects the error-carrying subset once the
            // per-pulse error probabilities are known.
            trace.mapped.resize(k);
            for (size_t i = 0; i < k; i++) {
                for (int p = 1; p <= 3; p++) {
                    trace.mapped[i][static_cast<size_t>(p - 1)] =
                        mapPauliThrough(suffix[i], p);
                }
            }
            skel.fused.push_back(std::move(trace));
            for (const Pulse &pulse : step.pulses)
                ref.applyGate(pulse.gate);
            break;
          }
          case PlanStep::Kind::Reset: {
            catchUp(step.q, step);
            FrameSkeleton::ResetTrace trace;
            trace.random =
                ref.measureFlipSupport(step.q, flip_x, flip_z);
            if (trace.random) {
                // The measurement half branches; the conditional-X
                // half rejoins both branches at |0>, so the
                // reference is outcome-independent — postselect 0
                // for free.
                trace.flipX = flip_x;
                trace.flipZ = flip_z;
                ref.postselect(step.q, false);
            } else if (ref.populationOne(step.q) == 1.0) {
                ref.applyX(step.q);
            }
            skel.resets.push_back(std::move(trace));
            break;
          }
          case PlanStep::Kind::Cond1Q: {
            catchUp(step.q, step);
            const int code = condPauliCode(step.pulses[0].gate);
            require(code >= 0, "conditional non-Pauli gate reached "
                               "the frame compiler");
            if (code == 0)
                break; // conditional identity: timing only
            if (refCl[static_cast<size_t>(step.condBit)] != 0) {
                // The reference takes its own branch: the Pauli's
                // sign action feeds later outcomes and populations.
                applyPauliCode(ref, code, step.q);
            }
            break;
          }
        }
    }
    return skel;
}

FrameProgram
bindFrameProgram(const ExecutionPlan &plan, const FrameSkeleton &skel,
                 const Calibration &cal, const NoiseFlags &flags)
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
    prog.branchDepth = skel.branchDepth;

    // Cursors into the recorded reference-walk traces, consumed in
    // lock-step with the structure-only guards the skeleton used.
    size_t fused_cursor = 0;
    size_t t1_cursor = 0;
    size_t meas_cursor = 0;
    size_t reset_cursor = 0;

    // The reference's classical bits, replayed from the measurement
    // traces so conditional ops resolve identically to the walk.
    std::vector<uint8_t> refCl(
        static_cast<size_t>(prog.numClbits), 0);
    std::vector<TimeNs> last_end(plan.active.size(), -1.0);

    // Coherent idle noise over [t0, t1): with OU excluded the phase
    // is shot-invariant, so the only emission is its static Pauli
    // twirl (same accumulation order as the interpreter).
    auto emitCoherent = [&](int dq, TimeNs t0, TimeNs t1) {
        if (t1 - t0 <= 1e-9)
            return;
        double phase = 0.0;
        if (flags.crosstalk) {
            for (const CrosstalkSource &src :
                 plan.xtalk[static_cast<size_t>(dq)]) {
                phase +=
                    src.radPerUs * overlapUs(t0, t1, src.start, src.end);
            }
        }
        if (phase == 0.0)
            return;
        require(flags.twirlCoherent,
                "coherent phase reached the frame compiler without "
                "twirlCoherent");
        FrameTwirlOp t;
        t.q = dq;
        t.prob = makeFrameBernoulli(twirlZProbability(phase));
        if (t.prob.mode == FrameBernoulli::Mode::Never)
            return;
        prog.twirl.push_back(t);
        prog.ops.push_back(
            {FrameOpRef::Kind::Twirl,
             static_cast<uint32_t>(prog.twirl.size()) - 1});
    };

    auto emitMarkov = [&](int dq, double dt_us) {
        if (dt_us <= 0.0)
            return;
        if (!flags.t1Damping && !flags.whiteDephasing)
            return;
        require(t1_cursor < skel.t1.size(),
                "frame skeleton T1 traces out of sync with the plan");
        const FrameSkeleton::T1Trace &trace = skel.t1[t1_cursor++];
        const auto &qc = cal.qubits[static_cast<size_t>(
            plan.active[static_cast<size_t>(dq)])];
        FrameMarkovOp m;
        m.q = dq;
        if (flags.t1Damping) {
            const double gamma = t1JumpProbability(dt_us, qc.t1Us);
            m.gammaThresh = bernoulliThreshold(gamma);
            m.gamma = gamma;
            m.t1Ref = trace.t1Ref;
            if (trace.t1Ref == 2) {
                // Superposed reference: the jump fires with the
                // folded rate gamma * 1/2 and hands the lane to a
                // compiled branch tail — or, with tails disabled,
                // defers it to an exact per-shot rerun forced at
                // this ordinal.
                m.randT1Ordinal = prog.randomT1Count++;
                m.t1 = makeFrameBernoulli(gamma * 0.5);
                if (prog.branchDepth > 0) {
                    m.flip = recordFlipSupport(prog.flipQubits,
                                               trace.flipX, trace.flipZ);
                    // One site per random ordinal, even if the op
                    // below is elided (keeps the ordinal -> site
                    // indexing dense; an elided op has gamma 0 and
                    // never fires).
                    prog.siteOps.push_back(
                        static_cast<uint32_t>(prog.ops.size()));
                }
            } else {
                m.t1 = makeFrameBernoulli(gamma);
            }
        }
        if (flags.whiteDephasing) {
            m.deph = makeFrameBernoulli(
                whiteDephasingFlipProbability(dt_us, qc.t2WhiteUs));
        }
        if (m.t1.mode == FrameBernoulli::Mode::Never &&
            m.deph.mode == FrameBernoulli::Mode::Never)
            return;
        prog.markov.push_back(m);
        prog.ops.push_back(
            {FrameOpRef::Kind::Markov,
             static_cast<uint32_t>(prog.markov.size()) - 1});
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

    for (const PlanStep &step : plan.steps) {
        switch (step.kind) {
          case PlanStep::Kind::Meas: {
            catchUp(step.q, step);
            require(meas_cursor < skel.meas.size(),
                    "frame skeleton measurement traces out of sync "
                    "with the plan");
            const FrameSkeleton::MeasTrace &trace =
                skel.meas[meas_cursor++];
            FrameMeasOp m;
            m.q = step.q;
            m.clbit = step.clbit;
            m.random = trace.random;
            m.refBit = trace.refBit;
            if (m.random)
                m.flip = recordFlipSupport(prog.flipQubits, trace.flipX,
                                           trace.flipZ);
            refCl[static_cast<size_t>(step.clbit)] = m.refBit;
            if (flags.measurementErrors) {
                m.err01 = makeFrameBernoulli(step.err01);
                m.err10 = makeFrameBernoulli(step.err10);
            }
            prog.meas.push_back(m);
            prog.ops.push_back(
                {FrameOpRef::Kind::Meas,
                 static_cast<uint32_t>(prog.meas.size()) - 1});
            break;
          }
          case PlanStep::Kind::TwoQubit: {
            catchUp(step.q, step);
            catchUp(step.q2, step);
            Frame2QOp g;
            g.a = step.q;
            g.b = step.q2;
            g.type = step.twoQubitType;
            prog.f2q.push_back(g);
            prog.ops.push_back(
                {FrameOpRef::Kind::F2Q,
                 static_cast<uint32_t>(prog.f2q.size()) - 1});
            if (flags.gateErrors && step.cxError > 0.0) {
                FrameErr2QOp e;
                e.a = step.q;
                e.b = step.q2;
                e.prob = makeFrameBernoulli(step.cxError);
                prog.err2q.push_back(e);
                prog.ops.push_back(
                    {FrameOpRef::Kind::Err2Q,
                     static_cast<uint32_t>(prog.err2q.size()) - 1});
            }
            break;
          }
          case PlanStep::Kind::Fused1Q: {
            catchUp(step.q, step);
            require(fused_cursor < skel.fused.size(),
                    "frame skeleton fused traces out of sync with "
                    "the plan");
            const FrameSkeleton::FusedTrace &trace =
                skel.fused[fused_cursor++];
            Frame1QOp op;
            op.q = step.q;
            op.kind = trace.kind;
            op.namedCount = trace.namedCount;
            op.named = trace.named;
            if (op.kind != Frame1QKind::Identity ||
                op.namedCount != 0) {
                prog.f1q.push_back(op);
                prog.ops.push_back(
                    {FrameOpRef::Kind::F1Q,
                     static_cast<uint32_t>(prog.f1q.size()) - 1});
            }
            if (flags.gateErrors) {
                for (size_t i = 0; i < step.pulses.size(); i++) {
                    if (step.pulses[i].errorProb <= 0.0)
                        continue;
                    FrameErr1QOp e;
                    e.q = step.q;
                    e.prob = makeFrameBernoulli(step.pulses[i].errorProb);
                    for (size_t p = 0; p < 3; p++)
                        e.mapped[p] = trace.mapped[i][p];
                    prog.err1q.push_back(e);
                    prog.ops.push_back(
                        {FrameOpRef::Kind::Err1Q,
                         static_cast<uint32_t>(prog.err1q.size()) -
                             1});
                }
            }
            break;
          }
          case PlanStep::Kind::Reset: {
            catchUp(step.q, step);
            require(reset_cursor < skel.resets.size(),
                    "frame skeleton reset traces out of sync with "
                    "the plan");
            const FrameSkeleton::ResetTrace &trace =
                skel.resets[reset_cursor++];
            FrameResetOp r;
            r.q = step.q;
            r.random = trace.random;
            if (r.random)
                r.flip = recordFlipSupport(prog.flipQubits, trace.flipX,
                                           trace.flipZ);
            prog.resets.push_back(r);
            prog.ops.push_back(
                {FrameOpRef::Kind::Reset,
                 static_cast<uint32_t>(prog.resets.size()) - 1});
            break;
          }
          case PlanStep::Kind::Cond1Q: {
            catchUp(step.q, step);
            const int code = condPauliCode(step.pulses[0].gate);
            require(code >= 0, "conditional non-Pauli gate reached "
                               "the frame compiler");
            if (code == 0)
                break; // conditional identity: timing only
            FrameCondOp c;
            c.q = step.q;
            c.condBit = step.condBit;
            c.pauli = static_cast<uint8_t>(code);
            c.refCond = refCl[static_cast<size_t>(step.condBit)];
            prog.cond.push_back(c);
            prog.ops.push_back(
                {FrameOpRef::Kind::Cond,
                 static_cast<uint32_t>(prog.cond.size()) - 1});
            break;
          }
        }
    }
    require(fused_cursor == skel.fused.size() &&
                t1_cursor == skel.t1.size() &&
                meas_cursor == skel.meas.size() &&
                reset_cursor == skel.resets.size(),
            "frame skeleton traces not fully consumed by the bind");
    prog.branchTails =
        prog.branchDepth > 0 && prog.randomT1Count > 0;
    return prog;
}

namespace
{

/**
 * Advance reference @p ref, with its recorded clbits @p refCl,
 * through root.ops[from, to): the tableau actions of gates, the
 * reference's own collapse at random measures and resets (outcome 0),
 * and the conditional Paulis its bits select — exactly what the
 * skeleton walk did to the root reference.  With @p rec set, every
 * reference-dependent op is also classified into rec's overlays.
 */
void
walkTailReference(const FrameProgram &root, StabilizerState &ref,
                  std::vector<uint8_t> &refCl, uint32_t from,
                  uint32_t to, FrameTail *rec)
{
    std::vector<QubitId> flip_x, flip_z;
    for (uint32_t oi = from; oi < to; oi++) {
        const FrameOpRef op = root.ops[oi];
        switch (op.kind) {
          case FrameOpRef::Kind::F1Q:
            applyFrameOp(ref, root.f1q[op.idx]);
            break;
          case FrameOpRef::Kind::F2Q:
            applyFrameOp(ref, root.f2q[op.idx]);
            break;
          case FrameOpRef::Kind::Err1Q:
          case FrameOpRef::Kind::Err2Q:
          case FrameOpRef::Kind::Twirl:
            break; // reference-independent
          case FrameOpRef::Kind::Markov: {
            if (rec == nullptr)
                break;
            const FrameMarkovOp &m = root.markov[op.idx];
            FrameTail::Markov &ov = rec->markov.emplace_back();
            if (m.gamma > 0.0) {
                // Re-classify the T1 checkpoint against the jumped
                // reference: a deterministic root checkpoint can turn
                // superposed here and vice versa.
                const double p1 = ref.populationOne(m.q);
                ov.t1Ref = p1 == 0.5 ? 2 : p1 == 1.0 ? 1 : 0;
                ov.t1Thresh = bernoulliThreshold(
                    ov.t1Ref == 2 ? m.gamma * 0.5 : m.gamma);
            }
            if (ov.t1Ref == 2) {
                const bool sup =
                    ref.measureFlipSupport(m.q, flip_x, flip_z);
                require(sup, "superposed T1 checkpoint with a "
                             "deterministic Z measurement");
                ov.ordinal = static_cast<uint32_t>(rec->siteOps.size());
                ov.flip = recordFlipSupport(rec->flipQubits, flip_x,
                                            flip_z);
                rec->siteOps.push_back(oi);
            }
            break;
          }
          case FrameOpRef::Kind::Meas:
          case FrameOpRef::Kind::Reset: {
            const bool meas = op.kind == FrameOpRef::Kind::Meas;
            const int q =
                meas ? root.meas[op.idx].q : root.resets[op.idx].q;
            FrameTail::Collapse ov;
            ov.random = ref.measureFlipSupport(q, flip_x, flip_z);
            if (ov.random) {
                if (rec != nullptr)
                    ov.flip = recordFlipSupport(rec->flipQubits, flip_x,
                                                flip_z);
                ref.postselect(q, false);
            } else {
                ov.refBit = ref.populationOne(q) == 1.0 ? 1 : 0;
                if (!meas && ov.refBit != 0)
                    ref.applyX(q); // the reset's correction
            }
            if (meas)
                refCl[static_cast<size_t>(root.meas[op.idx].clbit)] =
                    ov.refBit;
            if (rec != nullptr)
                (meas ? rec->meas : rec->resets).push_back(ov);
            break;
          }
          case FrameOpRef::Kind::Cond: {
            const FrameCondOp &c = root.cond[op.idx];
            const uint8_t bit = refCl[static_cast<size_t>(c.condBit)];
            if (bit != 0)
                applyPauliCode(ref, c.pauli, c.q);
            if (rec != nullptr)
                rec->condRef.push_back(bit);
            break;
          }
        }
    }
}

} // namespace

FrameTail
compileFrameTail(const FrameProgram &root, const FrameTail *parent,
                 uint32_t ordinal)
{
    const std::vector<uint32_t> &sites =
        parent != nullptr ? parent->siteOps : root.siteOps;
    require(ordinal < sites.size(),
            "compileFrameTail: checkpoint ordinal out of range");
    const uint32_t site = sites[ordinal];
    const int q = root.markov[root.ops[site].idx].q;

    // The jumped reference: the parent's start reference advanced to
    // the checkpoint, the excited branch postselected, and the decay
    // jump landing it in |0>.
    StabilizerState ref = parent != nullptr
                              ? parent->ref
                              : StabilizerState(root.numQubits);
    std::vector<uint8_t> refCl =
        parent != nullptr
            ? parent->refCl
            : std::vector<uint8_t>(static_cast<size_t>(root.numClbits), 0);
    walkTailReference(root, ref, refCl,
                      parent != nullptr ? parent->start : 0, site, nullptr);
    ref.postselect(q, true);
    ref.applyX(q);

    FrameTail tail(ref);
    tail.refCl = refCl;
    tail.start = site + 1;
    tail.branchDepth =
        (parent != nullptr ? parent->branchDepth : root.branchDepth) - 1;
    if (tail.branchDepth < 0)
        return tail;
    walkTailReference(root, ref, refCl, tail.start,
                      static_cast<uint32_t>(root.ops.size()), &tail);
    // Each overlay covers the suffix of its root array that
    // root.ops[start ..) references.
    const auto base = [](const auto &all, const auto &overlay) {
        return static_cast<uint32_t>(all.size() - overlay.size());
    };
    tail.markovBase = base(root.markov, tail.markov);
    tail.measBase = base(root.meas, tail.meas);
    tail.resetBase = base(root.resets, tail.resets);
    tail.condBase = base(root.cond, tail.condRef);
    return tail;
}

const FrameTail &
FrameTailCache::tail(const FrameProgram &root, const FrameTail *parent,
                     uint32_t ordinal)
{
    const std::pair<const void *, uint32_t> key{
        parent != nullptr ? static_cast<const void *>(parent) : &root,
        ordinal};
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = tails_.find(key);
        if (it != tails_.end())
            return *it->second;
    }
    // Compile outside the lock: deterministic output makes a racing
    // double-compile benign, and try_emplace keeps the first copy
    // (stable addresses for nested tail keys).
    auto compiled = std::make_unique<FrameTail>(
        compileFrameTail(root, parent, ordinal));
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = tails_.try_emplace(key, std::move(compiled));
    return *it->second;
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
    tape_.events.reserve(64);
}

void
ShotReplayer::drawTape(const Rng &shot_rng, ShotTape &tape)
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
    // Every written slot is unconditionally overwritten before any
    // read (dynamic phases on emission, meas words per Meas / Reset
    // op), so resize without zeroing is safe.
    tape.phases.resize(prog_.phaseSlots);
    tape.measWord.resize(size_t{2} * prog_.measSlots);
    tape.events.clear();

    for (uint32_t i = 0; i < prog_.ops.size(); i++) {
        const OpRef ref = prog_.ops[i];
        switch (ref.kind) {
          case OpRef::Kind::Coherent: {
            const CoherentOp &c = prog_.coherent[ref.idx];
            const auto ai = static_cast<size_t>(c.q);
            if (c.ouKind != 0) {
                if (c.ouKind == 2) {
                    ouVal_[ai] = ouVal_[ai] * c.ouDecay +
                                 qubitRng_[ai].normal(0.0, c.ouSd);
                }
                double phase = 0.0;
                phase += ouVal_[ai] * c.gapDtUs;
                for (uint32_t t = 0; t < c.termsCnt; t++)
                    phase += prog_.xtalkTerms[c.termsOff + t];
                if (flags.twirlCoherent) {
                    if (phase != 0.0) {
                        if (qubitRng_[ai].bernoulli(
                                twirlZProbability(phase))) {
                            tape.events.push_back(
                                {i, 0, 0, ShotEvent::Kind::TwirlZ, 0,
                                 0});
                        }
                    }
                } else {
                    tape.phases[c.phaseSlot] = phase;
                }
            } else if (c.twirlThresh != kNoDraw) {
                if ((qubitRng_[ai].next() >> 11) < c.twirlThresh) {
                    tape.events.push_back(
                        {i, 0, 0, ShotEvent::Kind::TwirlZ, 0, 0});
                }
            }
            // Static non-twirl phases draw nothing.
            break;
          }
          case OpRef::Kind::Markov: {
            const MarkovOp &m = prog_.markov[ref.idx];
            const auto ai = static_cast<size_t>(m.q);
            if (m.t1Thresh != kNoDraw &&
                (qubitRng_[ai].next() >> 11) < m.t1Thresh) {
                // Reserve the population-conditional word; the replay
                // resolves it against the live state.
                tape.events.push_back({i, 0, qubitRng_[ai].next(),
                                       ShotEvent::Kind::T1Jump, 0, 0});
            }
            if (m.dephThresh != kNoDraw &&
                (qubitRng_[ai].next() >> 11) < m.dephThresh) {
                tape.events.push_back(
                    {i, 0, 0, ShotEvent::Kind::DephZ, 0, 0});
            }
            break;
          }
          case OpRef::Kind::Fused1Q: {
            const Fused1QOp &f = prog_.fused[ref.idx];
            for (uint32_t e = 0; e < f.errCnt; e++) {
                const PulseErrCheck &chk =
                    prog_.errChecks[f.errOff + e];
                if ((gateRng_.next() >> 11) < chk.thresh) {
                    const auto pauli = static_cast<uint8_t>(
                        gateRng_.uniformInt(3) + 1);
                    tape.events.push_back({i, chk.pulse, 0,
                                           ShotEvent::Kind::Err1Q,
                                           pauli, 0});
                }
            }
            break;
          }
          case OpRef::Kind::TwoQ: {
            const TwoQOp &t = prog_.twoQ[ref.idx];
            if (t.errThresh != kNoDraw &&
                (gateRng_.next() >> 11) < t.errThresh) {
                const auto code =
                    static_cast<int>(gateRng_.uniformInt(15)) + 1;
                tape.events.push_back(
                    {i, 0, 0, ShotEvent::Kind::Err2Q,
                     static_cast<uint8_t>(code & 3),
                     static_cast<uint8_t>(code >> 2)});
            }
            break;
          }
          case OpRef::Kind::Meas: {
            const MeasOp &m = prog_.meas[ref.idx];
            tape.measWord[size_t{2} * m.wordSlot] = gateRng_.next();
            tape.measWord[size_t{2} * m.wordSlot + 1] =
                flags.measurementErrors ? gateRng_.next() : 0;
            break;
          }
          case OpRef::Kind::Reset: {
            // One collapse word, like a measurement without readout
            // error; the conditional |1> -> |0> flip resolves in the
            // replay against the live state.
            const ResetOp &r = prog_.resets[ref.idx];
            tape.measWord[size_t{2} * r.wordSlot] = gateRng_.next();
            tape.measWord[size_t{2} * r.wordSlot + 1] = 0;
            break;
          }
          case OpRef::Kind::Cond1Q:
            // Conditional pulses carry no error channel: nothing to
            // draw, and the condition resolves in the replay.
            break;
        }
    }
}

void
ShotReplayer::replayStream(const std::vector<OpRef> &stream,
                           const ShotTape &tape)
{
    const NoiseFlags &flags = prog_.flags;
    const std::vector<ShotEvent> &events = tape.events;
    const size_t n_events = events.size();
    const auto n_ops = static_cast<uint32_t>(stream.size());
    size_t cursor = 0; // first tape event not yet applied
    // Ops name dense qubits; the state is addressed by join-order bit.
    const int *bit = plan_.svBit.data();

    for (uint32_t i = 0; i < n_ops; i++) {
        const OpRef ref = stream[i];
        switch (ref.kind) {
          case OpRef::Kind::Coherent: {
            const CoherentOp &c = prog_.coherent[ref.idx];
            if (flags.twirlCoherent) {
                if (cursor < n_events && events[cursor].op == i) {
                    sv_.apply1Q(pauliMatrix(3), bit[c.q]);
                    cursor++;
                }
                break;
            }
            const double phi = c.ouKind != 0
                                   ? tape.phases[c.phaseSlot]
                                   : c.staticPhi;
            if (phi != 0.0)
                sv_.applyPhase(bit[c.q], phi);
            break;
          }
          case OpRef::Kind::Markov: {
            const MarkovOp &m = prog_.markov[ref.idx];
            while (cursor < n_events && events[cursor].op == i) {
                const ShotEvent &e = events[cursor++];
                if (e.kind == ShotEvent::Kind::T1Jump) {
                    const double p = sv_.populationOne(bit[m.q]);
                    const double u =
                        static_cast<double>(e.word >> 11) * 0x1.0p-53;
                    if (u < p)
                        sv_.applyDecayJump(bit[m.q]);
                } else { // DephZ
                    sv_.apply1Q(pauliMatrix(3), bit[m.q]);
                }
            }
            break;
          }
          case OpRef::Kind::Fused1Q: {
            const Fused1QOp &f = prog_.fused[ref.idx];
            if (cursor >= n_events || events[cursor].op != i) {
                sv_.apply1Q(prog_.matrices[f.fullMat], bit[f.q]);
                break;
            }
            // Error splice: prefix · Pauli · (segments) · suffix,
            // every product bit-identical to the interpreter's
            // running accumulation.
            const std::vector<Pulse> &pulses =
                plan_.steps[f.step].pulses;
            int64_t prev = -1;
            while (cursor < n_events && events[cursor].op == i) {
                const ShotEvent &e = events[cursor++];
                if (prev < 0) {
                    sv_.apply1Q(prog_.matrices[f.prefixOff + e.pulse],
                                bit[f.q]);
                } else {
                    Matrix2 seg = Matrix2::identity();
                    for (auto j = static_cast<uint32_t>(prev + 1);
                         j <= e.pulse; j++)
                        seg = pulses[j].matrix * seg;
                    sv_.apply1Q(seg, bit[f.q]);
                }
                sv_.apply1Q(pauliMatrix(e.a), bit[f.q]);
                prev = e.pulse;
            }
            if (f.suffixOff != kNoTable) {
                sv_.apply1Q(
                    prog_.matrices[f.suffixOff +
                                   static_cast<uint32_t>(prev)],
                    bit[f.q]);
            } else {
                Matrix2 tail = Matrix2::identity();
                for (auto j = static_cast<uint32_t>(prev + 1);
                     j < f.pulseCnt; j++)
                    tail = pulses[j].matrix * tail;
                sv_.apply1Q(tail, bit[f.q]);
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
            if (cursor < n_events && events[cursor].op == i) {
                const ShotEvent &e = events[cursor++];
                if (e.a != 0)
                    sv_.apply1Q(pauliMatrix(e.a), bit[t.q]);
                if (e.b != 0)
                    sv_.apply1Q(pauliMatrix(e.b), bit[t.q2]);
            }
            break;
          }
          case OpRef::Kind::Meas: {
            const MeasOp &m = prog_.meas[ref.idx];
            const uint64_t mw = tape.measWord[size_t{2} * m.wordSlot];
            const double u =
                static_cast<double>(mw >> 11) * 0x1.0p-53;
            bool outcome = sv_.measureCollapse(bit[m.q], u);
            if (flags.measurementErrors) {
                const uint64_t ew =
                    tape.measWord[size_t{2} * m.wordSlot + 1];
                if ((ew >> 11) < (outcome ? m.thresh10 : m.thresh01))
                    outcome = !outcome;
            }
            packer_.set(m.clbit, outcome);
            break;
          }
          case OpRef::Kind::Reset: {
            const ResetOp &r = prog_.resets[ref.idx];
            const uint64_t mw = tape.measWord[size_t{2} * r.wordSlot];
            const double u =
                static_cast<double>(mw >> 11) * 0x1.0p-53;
            if (sv_.measureCollapse(bit[r.q], u))
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
}

uint64_t
ShotReplayer::replayShot(const ShotTape &tape)
{
    sv_.reset();
    packer_.clear();
    totalShots_++;
    if (tape.events.empty()) {
        // No stochastic event fired: maximally fused deterministic
        // replay (no Markov ops, one matrix per pulse train).
        fastShots_++;
        replayStream(prog_.fastOps, tape);
    } else {
        replayStream(prog_.ops, tape);
    }
    return packer_.key();
}

uint64_t
ShotReplayer::runShot(const Rng &shot_rng)
{
    drawTape(shot_rng, tape_);
    return replayShot(tape_);
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
