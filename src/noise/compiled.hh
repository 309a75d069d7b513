/**
 * @file
 * Compile-once shot programs for the dense trajectory engine.
 *
 * NoisyMachine's historical inner loop re-interpreted the execution
 * plan for every shot: it re-composed the same Matrix2 pulse
 * products, re-evaluated the same exp()-heavy idle-noise constants,
 * and re-branched on step kinds — all work that is identical across
 * the thousands of shots of a job.  This unit hoists everything
 * shot-invariant into a one-time lowering:
 *
 *   ScheduledCircuit --buildPlan--> ExecutionPlan
 *                    --compileShotProgram--> ShotProgram
 *
 * A ShotProgram is a flat opcode stream with
 *  - pre-fused 1Q pulse products per Fused1Q step, plus prefix /
 *    suffix product tables so a rare gate error firing at pulse i
 *    splices prefix[i] · Pauli · suffix[i] without re-deriving any
 *    matrix (multi-error trains fall back to an identical sequential
 *    fold over the stored pulse matrices), and
 *  - per-step idle / Markovian noise constants (OU decay and
 *    innovation sigma, crosstalk phase terms, T1 / dephasing flip
 *    probabilities) precomputed once, with probabilities stored as
 *    fixed-point Bernoulli thresholds compared directly against raw
 *    RNG words.
 *
 * A shot is one walk over the stream: each op draws its randomness
 * and applies it to the state before the next op runs.
 *
 * Determinism contract: a compiled shot consumes exactly the same RNG
 * words from exactly the same forked streams, in the same op order, as
 * the interpreted reference path in machine.cc, and mutates the
 * StateVector with bit-identical operands in the same order.  Output
 * distributions are therefore bit-identical to the interpreter for any
 * seed, any thread count, and batch-vs-serial (tests/test_compiled.cc
 * locks this).
 * The library builds with -ffp-contract=off so the duplicated scalar
 * expressions here and in machine.cc cannot diverge through FMA
 * contraction on native builds.
 */

#ifndef ADAPT_NOISE_COMPILED_HH
#define ADAPT_NOISE_COMPILED_HH

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "circuit/gate.hh"
#include "common/cancellation.hh"
#include "common/flat_accumulator.hh"
#include "common/matrix2.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "device/calibration.hh"
#include "noise/noise_model.hh"
#include "sim/backend.hh"
#include "sim/frame_batch.hh"
#include "sim/statevector.hh"
#include "transpile/schedule.hh"

namespace adapt
{

// ------------------------------------------------------------------
// Shot-invariant execution plan (shared by the interpreted reference
// path in machine.cc and the compiler below).
// ------------------------------------------------------------------

constexpr double kNsToUs = 1e-3;

/** A crosstalk source seen by one spectator qubit. */
struct CrosstalkSource
{
    TimeNs start;
    TimeNs end;
    double radPerUs;
};

/** Overlap of [a0, a1) and [b0, b1) in microseconds. */
inline double
overlapUs(TimeNs a0, TimeNs a1, TimeNs b0, TimeNs b1)
{
    return std::max(0.0, std::min(a1, b1) - std::max(a0, b0)) * kNsToUs;
}

/** One pulse of a fused single-qubit train. */
struct Pulse
{
    Gate gate; //!< dense-relabelled operands (tableau replay)
    Matrix2 matrix;
    double errorProb;

    /** True for physical pulses (X/Y/SX/SXdg) that carry the
     *  calibration's 1Q gate-error channel; lets the bind phase
     *  re-stamp errorProb without re-classifying the gate. */
    bool physical = false;
};

/** One step of the pre-compiled execution plan. */
struct PlanStep
{
    enum class Kind { Fused1Q, TwoQubit, Meas, Reset, Cond1Q } kind;
    int q = -1;
    int q2 = -1;
    TimeNs start = 0.0;
    TimeNs end = 0.0;
    std::vector<Pulse> pulses;       // Fused1Q, Cond1Q (one pulse)
    GateType twoQubitType = GateType::CX;
    double cxError = 0.0;            // TwoQubit
    int linkIndex = -1;              // TwoQubit (cxError's source)
    int clbit = 0;                   // Meas
    double err01 = 0.0, err10 = 0.0; // Meas

    /** Meas only: no later step touches q, so the dense engines
     *  retire q from the state vector (StateVector::measureRetire).
     *  Derived from the schedule alone. */
    bool retires = false;

    /** Classical bit the gate is conditioned on (Cond1Q only).
     *  Conditional pulses carry no gate-error channel — the feedback
     *  pulse fires in a data-dependent subset of shots, and keeping
     *  it noiseless keeps every engine's RNG consumption a fixed
     *  property of the program. */
    int condBit = -1;
};

/**
 * The shot-invariant execution plan: the schedule lowered onto dense
 * qubit indices, with calibration data baked into every step and
 * crosstalk sources precomputed per spectator.  Built once per job
 * and shared read-only by all shot workers.
 */
struct ExecutionPlan
{
    std::vector<QubitId> active; //!< dense index -> physical qubit

    /**
     * Dense index -> state-vector bit at shot start, in join order:
     * qubits take bits in the order the step stream first touches them
     * (a step's q, then a TwoQubit's q2), and qubits with no step
     * (e.g. only a Delay) take the remaining bits.  The dense engines
     * address the StateVector through a per-shot copy of this table,
     * so its live prefix (sim/statevector.hh) reaches a qubit only at
     * its first step; a retiring Meas (PlanStep::retires) removes the
     * qubit's bit and shifts the copy (retireBit).  Everything else —
     * RNG streams, noise constants, crosstalk, the stabilizer engines
     * — stays keyed by dense index.  Derived from the schedule alone,
     * so it is part of the cached skeleton.
     */
    std::vector<int> svBit;

    std::vector<std::vector<CrosstalkSource>> xtalk; //!< per dense q
    std::vector<PlanStep> steps;

    /** Every gate Clifford: eligible for the stabilizer fast path. */
    bool clifford = true;

    /** Highest classical bit written or read; > 63 switches the
     *  outcome keys to OutcomePacker fingerprints (wide stabilizer
     *  registers). */
    int maxClbit = 0;

    /** Some conditional gate's action is not a Pauli (e.g. a
     *  classically-controlled S): the lanes of a frame block would
     *  need per-lane non-Pauli references, so the job is ineligible
     *  for the batch frame engine (per-shot tableau replay handles it
     *  exactly). */
    bool condNonPauli = false;
};

/** Lower a scheduled executable onto the plan (once per job). */
ExecutionPlan buildPlan(const ScheduledCircuit &sched,
                        const Calibration &cal,
                        const NoiseFlags &flags);

// ------------------------------------------------------------------
// Fixed-point Bernoulli thresholds.
// ------------------------------------------------------------------

/** Sentinel threshold: this draw is disabled — consume nothing. */
constexpr uint64_t kNoDraw = UINT64_MAX;

/**
 * Fixed-point threshold T(p) such that for any raw RNG word w,
 *   (w >> 11) < T(p)  ⟺  Rng::bernoulli(p) fed the same word fires.
 *
 * Exactness: Rng::uniform() is (w >> 11) * 2^-53 with u = w >> 11 an
 * integer in [0, 2^53); both u and p * 2^53 = ldexp(p, 53) are exact
 * doubles, so u * 2^-53 < p ⟺ u < ceil(ldexp(p, 53)) as integers
 * (strict compare when ldexp(p, 53) is itself an integer).
 */
inline uint64_t
bernoulliThreshold(double p)
{
    if (p <= 0.0)
        return 0;
    if (p >= 1.0)
        return uint64_t{1} << 53;
    const double scaled = std::ldexp(p, 53); // exact: p has 53 bits
    const double c = std::ceil(scaled);
    if (c == scaled)
        return static_cast<uint64_t>(scaled);
    return static_cast<uint64_t>(c);
}

// ------------------------------------------------------------------
// Compiled opcode stream.
// ------------------------------------------------------------------

/** Sentinel for "no precomputed table". */
constexpr uint32_t kNoTable = UINT32_MAX;

/**
 * Coherent idle noise for one qubit over one gap.  Three flavours:
 *  - dynamic (OU enabled): the shot advances the qubit's OU value
 *    with the precomputed (decay, innovation sigma) pair and folds
 *    the precomputed crosstalk terms onto it; the resulting phase is
 *    applied (or, under twirlCoherent, twirled into a Z draw).
 *  - static phase (OU off, non-zero crosstalk fold): phi is fully
 *    precomputed; no per-shot randomness at all.
 *  - static twirl (OU off, twirlCoherent): the Z probability
 *    sin^2(phi/2) is a fixed-point threshold.
 */
struct CoherentOp
{
    int q = -1;

    /** 0: OU disabled; 1: OU sampled at an unchanged time (reuse the
     *  last value, no draw); 2: OU advances (one normal() draw). */
    uint8_t ouKind = 0;

    double ouDecay = 1.0;  //!< exp(-dt / tau) at this gap (ouKind 2)
    double ouSd = 0.0;     //!< sigma * sqrt(1 - decay^2) (ouKind 2)
    double gapDtUs = 0.0;  //!< (t1 - t0) * kNsToUs
    double staticPhi = 0.0;

    uint32_t termsOff = 0, termsCnt = 0; //!< into xtalkTerms
    uint64_t twirlThresh = kNoDraw;      //!< static twirl only
};

/** Markovian (T1 + white-dephasing) noise for one qubit over one
 *  wall-clock interval; thresholds are kNoDraw for disabled flags. */
struct MarkovOp
{
    int q = -1;
    uint64_t t1Thresh = kNoDraw;
    uint64_t dephThresh = kNoDraw;
};

/** One gate-error Bernoulli inside a fused 1Q train. */
struct PulseErrCheck
{
    uint32_t pulse = 0; //!< pulse index within the step
    uint64_t thresh = 0;
};

/** A fused single-qubit pulse train. */
struct Fused1QOp
{
    int q = -1;
    uint32_t step = 0;     //!< plan step (pulse matrices for splices)
    uint32_t pulseCnt = 0;
    uint32_t fullMat = 0;  //!< matrices[] index of the full product
    uint32_t prefixOff = 0;        //!< prefix[i] = fold of pulses 0..i
    uint32_t suffixOff = kNoTable; //!< suffix[i] = fold of i+1..end
    uint32_t errOff = 0, errCnt = 0; //!< into errChecks
};

/** A two-qubit gate with its depolarizing error threshold. */
struct TwoQOp
{
    int q = -1, q2 = -1;
    GateType type = GateType::CX;
    uint64_t errThresh = kNoDraw;
};

/** A projective measurement with readout-flip thresholds. */
struct MeasOp
{
    int q = -1;
    int clbit = 0;
    uint64_t thresh01 = 0, thresh10 = 0;
    bool retires = false; //!< PlanStep::retires: leave the state vector
};

/** An active reset: a projective collapse (one gateRng word, like a
 *  measurement) followed by X when the outcome was 1.  The outcome is
 *  consumed internally — no clbit, no readout error. */
struct ResetOp
{
    int q = -1;
};

/** A classically-controlled 1Q pulse, applied when the last recorded
 *  value of condBit is 1.  It draws nothing: conditional pulses carry
 *  no gate-error channel. */
struct Cond1QOp
{
    int q = -1;
    int condBit = 0;
    uint32_t mat = 0; //!< matrices[] index of the pulse matrix
};

/** One entry of an opcode stream: a kind plus an index into the
 *  matching payload array. */
struct OpRef
{
    enum class Kind : uint8_t
    {
        Coherent,
        Markov,
        Fused1Q,
        TwoQ,
        Meas,
        Reset,
        Cond1Q,
    };
    Kind kind;
    uint32_t idx;
};

/**
 * A job lowered into a flat opcode stream.  `ops` lists the ops in
 * the interpreter's order (coherent catch-up, then Markovian, then the
 * step, per plan step); every shot walks it once.
 */
struct ShotProgram
{
    int numQubits = 0;
    int numClbits = 1;
    NoiseFlags flags;

    std::vector<double> ouSigma; //!< per dense qubit (initial draw)

    std::vector<OpRef> ops;

    std::vector<CoherentOp> coherent;
    std::vector<MarkovOp> markov;
    std::vector<Fused1QOp> fused;
    std::vector<TwoQOp> twoQ;
    std::vector<MeasOp> meas;
    std::vector<ResetOp> resets;
    std::vector<Cond1QOp> cond;

    std::vector<PulseErrCheck> errChecks;
    std::vector<double> xtalkTerms;
    std::vector<Matrix2> matrices; //!< fused products + splice tables
};

/**
 * Lower @p plan into a ShotProgram (dense backend only; once per
 * job).  All probabilities become fixed-point thresholds and all
 * shot-invariant floating-point expressions are evaluated here with
 * the exact formulas of the interpreted path.
 */
ShotProgram compileShotProgram(const ExecutionPlan &plan,
                               const Calibration &cal,
                               const NoiseFlags &flags);

// ------------------------------------------------------------------
// Structure / constants split.
//
// Compilation is factored into a device-independent *structure* phase
// and a cheap device-dependent *bind* phase:
//
//   ScheduledCircuit --buildPlanSkeleton--> ProgramSkeleton
//   (skeleton, Calibration) --bindPlan/bindShotProgram/
//                             bindFrameProgram--> executable program
//
// The skeleton captures everything that does not depend on the
// calibration snapshot: the lowered step stream, link-activity
// windows, the dense splice tables (every Matrix2 product), and the
// frame path's unbound op stream (fused-train frame transforms, error
// images, and the reference classes: measurement outcomes,
// branch-flip supports, T1 classifications).  Binding stamps the
// remaining constants — T1 / dephasing / readout / gate-error rates,
// OU terms, crosstalk coefficients, fixed-point Bernoulli thresholds
// — and is orders of magnitude cheaper than a cold compile.  Drift
// sweeps and repeated JobServer submissions share skeletons through
// the ProgramCache (noise/program_cache.hh) and only re-bind; the
// structure phase leaves its step, pulse, matrix and op vectors at
// their exact size, since a cached skeleton outlives the prepare that
// built it.
//
// Determinism: a bound program is field-for-field identical to a
// cold compile of the same (schedule, calibration, flags) — the
// legacy entry points buildPlan / compileShotProgram are thin
// build+bind compositions, so cold and cached paths run literally the
// same code.
// ------------------------------------------------------------------

/** Per-link CX activity windows recorded by the structure phase so
 *  the bind phase can expand crosstalk sources without re-walking
 *  the schedule.  Only links with activity are recorded. */
struct LinkWindows
{
    int link = -1;
    std::vector<std::pair<TimeNs, TimeNs>> windows;
};

/**
 * Dense-path splice tables: every Matrix2 product compileShotProgram
 * historically built per job (fused-train prefix products, suffix
 * tables, conditional pulse matrices), laid out in the exact order
 * the ShotProgram matrix pool expects so binding is a single vector
 * copy.
 */
struct ShotTables
{
    struct StepRef
    {
        /** Cond1Q: the pulse matrix; Fused1Q: the prefix-table
         *  offset (fullMat = mat + pulseCnt - 1). */
        uint32_t mat = kNoTable;

        /** Fused1Q suffix table, when the train is short enough. */
        uint32_t suffixOff = kNoTable;
    };

    std::vector<Matrix2> matrices;
    std::vector<StepRef> perStep; //!< parallel to ExecutionPlan::steps
};

/**
 * A compiled program with its device constants factored out: the
 * unit the ProgramCache shares across machines and drift cycles.
 * `plan` carries zeroed constants and empty crosstalk; `kind` is the
 * resolved backend.  A compiled skeleton sets `tables` (dense) or
 * `frame` (frame-eligible stabilizer); neither is set on the per-shot
 * interpreted paths.
 */
struct ProgramSkeleton
{
    ExecutionPlan plan;
    std::vector<LinkWindows> linkWindows;
    std::optional<ShotTables> tables;
    std::optional<FrameProgram> frame; //!< unbound (buildFrameSkeleton)
    BackendKind kind = BackendKind::Auto;
};

/**
 * Structure phase: lower the schedule into an unbound plan skeleton
 * (steps with constants zeroed, link-activity windows recorded,
 * crosstalk left empty).  Does not touch a Calibration; `tables` /
 * `frame` / `kind` are filled by the caller (NoisyMachine).
 */
ProgramSkeleton buildPlanSkeleton(const ScheduledCircuit &sched,
                                  const NoiseFlags &flags);

/**
 * Bind phase: stamp @p cal's constants (readout / CX / 1Q-pulse
 * error rates, crosstalk sources) into a copy of the skeleton's
 * plan.  The result is field-for-field identical to
 * buildPlan(sched, cal, flags).
 */
ExecutionPlan bindPlan(const ProgramSkeleton &skel,
                       const Calibration &cal,
                       const NoiseFlags &flags);

/** Structure phase of the dense compiler: precompute every Matrix2
 *  product of @p plan's step stream. */
ShotTables buildShotTables(const ExecutionPlan &plan);

/**
 * Bind phase of the dense compiler: evaluate the
 * calibration-dependent constants (OU transitions, crosstalk folds,
 * fixed-point thresholds) against a *bound* plan and splice in the
 * precomputed tables.  Identical output to compileShotProgram.
 */
ShotProgram bindShotProgram(const ExecutionPlan &plan,
                            const ShotTables &tables,
                            const Calibration &cal,
                            const NoiseFlags &flags);

/**
 * Structure phase of the frame compiler — the stabilizer-path
 * analogue of buildShotTables, for the bit-packed batch Pauli-frame
 * engine (sim/frame_batch.hh): lower @p plan into the unbound
 * FrameProgram, from its structure alone.
 *  - Every pulse train is fused into one GL(2, F2) frame transform,
 *    and its physical pulses' gate-error Paulis are conjugated through
 *    the train suffix into one Err1Q op.
 *  - Every rate is Never, and each rate-carrying op holds what its
 *    rate is computed from: a Markov op its interval, an Err2Q op its
 *    plan step, a Twirl op its idle gap.  An op whose bound rate is 0
 *    stays in the stream and draws nothing.
 *  - One reference walk from |0...0> (classifyFrameOps) fixes the
 *    root classes: every measurement's reference outcome plus the
 *    branch-flip Pauli of random ones, every reset's collapse, every
 *    conditional's reference bit, and each T1 checkpoint's reference
 *    population (deterministic checkpoints take the exact jump path,
 *    superposed ones a branch tail).
 *
 * Op emission mirrors the interpreted runShot order (coherent
 * catch-up, then Markovian, then the step), so the two engines sample
 * the same law.
 *
 * @pre plan.clifford and flags Pauli-expressible without per-shot OU
 *      (flags.ouDephasing off) and no non-Pauli conditionals; the
 *      dispatcher keeps other stabilizer jobs on the per-shot backend.
 */
FrameProgram buildFrameSkeleton(const ExecutionPlan &plan,
                                const NoiseFlags &flags);

/**
 * Bind phase of the frame compiler: copy @p skel and stamp the rates
 * of a *bound* plan into it — T1 and dephasing from each Markov op's
 * interval, readout and two-qubit gate errors, the per-qubit pulse
 * error, and each twirl's phase from plan.xtalk — with the exact
 * closed forms of the interpreted path.
 */
FrameProgram bindFrameProgram(const ExecutionPlan &plan,
                              const FrameProgram &skel,
                              const Calibration &cal,
                              const NoiseFlags &flags);

/**
 * Compile the branch tail of the superposed T1 checkpoint at root op
 * index @p site — see FrameTail.  The jumped reference is built here,
 * once per tail: |0...0> advanced through root.ops[0, site)
 * (walkFrameReference), then X · postselect(ref, 1) on the decaying
 * qubit.  The walk that classified the root then classifies
 * root.ops[site + 1 ..) against it into the tail's classes; gates,
 * errors and rates are never copied.
 *
 * @pre root.ops[site] is a Markov op whose root class is superposed
 */
FrameTail compileFrameTail(const FrameProgram &root, uint32_t site);

/**
 * Lazy, thread-safe store of a job's compiled branch tails, keyed by
 * the root op index of their checkpoint.  Shared by all the shot
 * chunks of a prepared job: a tail is compiled at most once per job
 * no matter how many lanes fire through it, and lives as long as the
 * job.  Compilation is deterministic, so the cache never changes
 * results — only cost.
 */
class FrameTailCache
{
  public:
    /** The tail of checkpoint @p site of @p root, compiled on first
     *  use; safe to call from concurrent chunk workers. */
    const FrameTail &tail(const FrameProgram &root, uint32_t site);

    /** Tails compiled so far. */
    size_t size() const;

  private:
    mutable std::mutex mu_;
    std::map<uint32_t, FrameTail> tails_;
};

// ------------------------------------------------------------------
// Per-shot execution.
// ------------------------------------------------------------------

/**
 * Per-chunk worker that runs a compiled program.  Owns the state
 * vector, its per-shot bit table, the outcome packer and the shot's
 * RNG streams; one instance serves all the shots of a chunk.
 */
class ShotReplayer
{
  public:
    ShotReplayer(const ExecutionPlan &plan, const ShotProgram &prog);

    /**
     * Execute one shot: one walk over the op stream, each op drawing
     * its randomness and applying it to the state.  Consumes RNG
     * streams forked off @p shot_rng exactly as the interpreted path
     * does, and returns the same outcome key.
     */
    uint64_t runShot(const Rng &shot_rng);

    /**
     * Run shots [first_shot, first_shot + count), forking each shot's
     * streams from (base, absolute shot index) as the engine does,
     * and count the outcomes into @p hist.
     *
     * When @p token is non-null it is polled before every shot and
     * the block stops early on a stop request — the single-chunk
     * cancellable path, giving one-shot cancellation latency while
     * keeping the completed prefix bit-identical to an uninterrupted
     * run (per-shot RNG streams never depend on where a run stops).
     *
     * @return Shots actually executed (== count unless stopped).
     */
    int64_t runBlock(const Rng &base, int64_t first_shot,
                     int64_t count, FlatAccumulator &hist,
                     const CancellationToken *token = nullptr);

  private:
    const ExecutionPlan &plan_;
    const ShotProgram &prog_;
    StateVector sv_;
    OutcomePacker packer_;

    /** This shot's dense index -> state-vector bit table: plan_.svBit
     *  at shot start, shifted by every retiring Meas.  Per replayer,
     *  because the shot chunks share the plan. */
    std::vector<int> svBit_;

    Rng gateRng_;
    std::vector<Rng> qubitRng_;
    std::vector<double> ouVal_;
};

} // namespace adapt

#endif // ADAPT_NOISE_COMPILED_HH
