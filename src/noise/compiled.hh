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
 *    fold over the stored pulse matrices),
 *  - per-step idle / Markovian noise constants (OU decay and
 *    innovation sigma, crosstalk phase terms, T1 / dephasing flip
 *    probabilities) precomputed once, with probabilities stored as
 *    fixed-point Bernoulli thresholds compared directly against raw
 *    RNG words, and
 *  - a no-error fast replay stream: each shot first resolves all of
 *    its stochastic outcomes in a cheap draw pass (no state-vector
 *    work); when nothing fires — the common case at realistic error
 *    rates — the shot replays a maximally fused deterministic stream
 *    that skips every noise branch.
 *
 * Determinism contract: a compiled shot consumes exactly the same RNG
 * words from exactly the same forked streams as the interpreted
 * reference path in machine.cc, and mutates the StateVector with
 * bit-identical operands in the same order.  Output distributions are
 * therefore bit-identical to the interpreter for any seed, any thread
 * count, and batch-vs-serial (tests/test_compiled.cc locks this).
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
#include <memory>
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
     * Dense index -> state-vector bit, in join order: qubits take bits
     * in the order the step stream first touches them (a step's q,
     * then a TwoQubit's q2), and qubits with no step (e.g. only a
     * Delay) take the remaining bits.  The dense engines address the
     * StateVector through this table, so its live prefix
     * (sim/statevector.hh) reaches a qubit only at its first step.
     * Everything else — RNG streams, noise constants, crosstalk, the
     * stabilizer engines — stays keyed by dense index.  Derived from
     * the schedule alone, so it is part of the cached skeleton.
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
 *  - dynamic (OU enabled): the draw pass advances the qubit's OU
 *    value with the precomputed (decay, innovation sigma) pair and
 *    folds the precomputed crosstalk terms onto it; the resulting
 *    phase lands in the tape slot the replay reads.
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
    uint32_t phaseSlot = 0;              //!< tape slot (dynamic)
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
    uint32_t wordSlot = 0; //!< tape slot holding the raw RNG words
    uint64_t thresh01 = 0, thresh10 = 0;
};

/** An active reset: a projective collapse (one reserved gateRng word,
 *  like a measurement) followed by X when the outcome was 1.  The
 *  outcome is consumed internally — no clbit, no readout error. */
struct ResetOp
{
    int q = -1;
    uint32_t wordSlot = 0; //!< tape slot (first word; second unused)
};

/** A classically-controlled 1Q pulse: applied in replay only (no
 *  draws — conditional pulses carry no gate-error channel) when the
 *  last recorded value of condBit is 1. */
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
 * A job lowered into flat opcode streams.  `ops` is the complete
 * stream the draw pass walks (and the replay falls back to when any
 * stochastic event fired); `fastOps` is the no-error replay stream
 * with every Markov / twirl op removed and every fused train resolved
 * to its single precomputed product.
 */
struct ShotProgram
{
    int numQubits = 0;
    int numClbits = 1;
    NoiseFlags flags;

    std::vector<double> ouSigma; //!< per dense qubit (initial draw)

    std::vector<OpRef> ops;
    std::vector<OpRef> fastOps;

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

    uint32_t phaseSlots = 0;
    uint32_t measSlots = 0;
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
// frame path's entire reference-tableau walk (measurement outcomes,
// branch-flip supports, T1 classifications, fused-train frame
// transforms).  Binding stamps the remaining constants — T1 /
// dephasing / readout / gate-error rates, OU terms, crosstalk
// coefficients, fixed-point Bernoulli thresholds — and is orders of
// magnitude cheaper than a cold compile.  Drift
// sweeps, adaptSearch mask neighbourhoods, and repeated JobServer
// submissions share skeletons through the ProgramCache
// (noise/program_cache.hh) and only re-bind.
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
 * Frame-path structure trace: the complete record of the noiseless
 * reference-tableau walk buildFrameSkeleton performs.  Every
 * reference query (measurement randomness, flip supports, T1
 * population classes) and every fused-train Clifford resolution is
 * device-independent, so it is recorded once here and consumed in
 * plan-step order by bindFrameProgram — which then only evaluates
 * calibration-dependent probabilities.  It keeps no tableau: a branch
 * tail re-derives its jumped reference from the bound op stream when
 * it is first compiled (compileFrameTail).
 */
struct FrameSkeleton
{
    /** Branch-tail recursion cap the skeleton was built for (part of
     *  the program-cache key). */
    int branchDepth = 0;

    /** One per Fused1Q step: the train's frame transform, its
     *  named-gate realization, and each pulse's Pauli images through
     *  the train suffix. */
    struct FusedTrace
    {
        Frame1QKind kind = Frame1QKind::Identity;
        uint8_t namedCount = 0;
        std::array<GateType, 6> named{};
        std::vector<std::array<uint8_t, 3>> mapped; //!< per pulse
    };

    /** One per Markov emission (dt > 0 and a Markov flag enabled):
     *  the T1 checkpoint's reference class and branch-flip support. */
    struct T1Trace
    {
        uint8_t t1Ref = 0; //!< 0 / 1 deterministic, 2 superposed
        std::vector<QubitId> flipX, flipZ; //!< superposed, depth > 0
    };

    /** One per Meas step. */
    struct MeasTrace
    {
        bool random = false;
        uint8_t refBit = 0;
        std::vector<QubitId> flipX, flipZ;
    };

    /** One per Reset step. */
    struct ResetTrace
    {
        bool random = false;
        std::vector<QubitId> flipX, flipZ;
    };

    std::vector<FusedTrace> fused;
    std::vector<T1Trace> t1;
    std::vector<MeasTrace> meas;
    std::vector<ResetTrace> resets;
};

/**
 * A compiled program with its device constants factored out: the
 * unit the ProgramCache shares across machines, drift cycles, and
 * mask variants.  `plan` carries zeroed constants and empty
 * crosstalk; `kind` is the resolved backend; exactly one of
 * `tables` / `frame` is set when `compiled` (none on the per-shot
 * interpreted stabilizer path).
 */
struct ProgramSkeleton
{
    ExecutionPlan plan;
    std::vector<LinkWindows> linkWindows;
    std::optional<ShotTables> tables;
    std::optional<FrameSkeleton> frame;
    BackendKind kind = BackendKind::Auto;
    bool compiled = false;
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
 * engine (sim/frame_batch.hh): run the noiseless reference tableau
 * once over @p plan, recording every reference query and fused-train
 * resolution.  Together with bindFrameProgram this bakes into the op
 * stream:
 *  - every measurement's reference outcome, plus the branch-flip
 *    Pauli for random-outcome measurements,
 *  - each T1 checkpoint's reference population (deterministic
 *    checkpoints take the exact jump path, superposed ones a branch
 *    tail or a deferred per-shot rerun),
 *  - every pulse train fused into one GL(2, F2) frame transform, with
 *    mid-train gate errors conjugated through the train suffix,
 *  - every noise probability resolved into a FrameBernoulli mask
 *    mode, with the exact closed forms of the interpreted path.
 *
 * Noise-op emission mirrors the interpreted runShot order (coherent
 * catch-up, then Markovian, then the step), so the two engines sample
 * the same law.
 *
 * @param branch_depth Branch-tail recursion cap (the parsed
 *        ADAPT_FRAME_BRANCH_DEPTH; 0 disables tails).
 * @pre plan.clifford and flags Pauli-expressible without per-shot OU
 *      (flags.ouDephasing off) and no non-Pauli conditionals; the
 *      dispatcher keeps other stabilizer jobs on the per-shot backend.
 */
FrameSkeleton buildFrameSkeleton(const ExecutionPlan &plan,
                                 const NoiseFlags &flags,
                                 int branch_depth);

/**
 * Bind phase of the frame compiler: replay the recorded reference
 * trace against a *bound* plan, evaluating FrameBernoullis from the
 * calibration.
 */
FrameProgram bindFrameProgram(const ExecutionPlan &plan,
                              const FrameSkeleton &skel,
                              const Calibration &cal,
                              const NoiseFlags &flags);

/**
 * Compile the branch tail for superposed T1 checkpoint @p ordinal of
 * @p parent (nullptr: of @p root itself) — see FrameTail.  The jumped
 * reference is built here, once per tail: the parent's start
 * reference (|0...0> at op 0 for the root) advanced through root ops
 * [parent start, site), then X · postselect(ref, 1) on the decaying
 * qubit.  A copy of it then walks root.ops[site + 1 ..) to re-derive
 * every reference-dependent field into the tail's overlays; gates,
 * errors and rates are never copied.  The tail's branchDepth is one
 * less than the parent's; a capped tail (branchDepth < 0) stops after
 * its reference, which is all the depth-cap fallback reads.
 *
 * @pre root.branchTails, and ordinal indexes the parent's siteOps
 */
FrameTail compileFrameTail(const FrameProgram &root,
                           const FrameTail *parent, uint32_t ordinal);

/**
 * Lazy, thread-safe store of compiled branch tails, keyed by (parent
 * tail, or the root, plus ordinal) — tails of tails nest naturally
 * because the stored tails have stable addresses.  Shared by all the
 * shot chunks of a prepared job: a tail is compiled at most once per
 * job no matter how many lanes fire through it, and lives as long as
 * the job.  Compilation is deterministic, so the cache never changes
 * results — only cost.
 */
class FrameTailCache final : public FrameTailSource
{
  public:
    const FrameTail &tail(const FrameProgram &root,
                          const FrameTail *parent,
                          uint32_t ordinal) override;

    /** Tails compiled so far. */
    size_t size() const;

  private:
    mutable std::mutex mu_;
    std::map<std::pair<const void *, uint32_t>,
             std::unique_ptr<FrameTail>>
        tails_;
};

// ------------------------------------------------------------------
// Per-shot execution.
// ------------------------------------------------------------------

/** A stochastic event resolved by the draw pass. */
struct ShotEvent
{
    enum class Kind : uint8_t { TwirlZ, T1Jump, DephZ, Err1Q, Err2Q };
    uint32_t op = 0;    //!< index into ShotProgram::ops
    uint32_t pulse = 0; //!< firing pulse (Err1Q)
    uint64_t word = 0;  //!< reserved raw RNG word (T1Jump)
    Kind kind = Kind::TwirlZ;
    uint8_t a = 0, b = 0; //!< Pauli codes (Err1Q / Err2Q)
};

/**
 * Everything one shot's draw pass resolved: the dynamic phases, the
 * reserved measurement / reset RNG words, and the fired events.  A
 * ShotTape plus the compiled program fully determines the shot — the
 * replay consumes no RNG — so a tape drawn by drawTape and replayed
 * later by replayShot gives the same outcome as runShot.
 */
struct ShotTape
{
    std::vector<double> phases;     //!< per phaseSlot
    std::vector<uint64_t> measWord; //!< 2 per measSlot
    std::vector<ShotEvent> events;
};

/**
 * Per-chunk worker that replays a compiled program.  Owns the state
 * vector, the outcome packer, and the reusable draw tape; one
 * instance serves all the shots of a chunk.
 */
class ShotReplayer
{
  public:
    ShotReplayer(const ExecutionPlan &plan, const ShotProgram &prog);

    /**
     * Execute one shot: draw pass, then fast or general replay.
     * Consumes RNG streams forked off @p shot_rng exactly as the
     * interpreted path does, and returns the same outcome key.
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

    /**
     * Draw pass only: resolve every stochastic outcome of the shot
     * into @p tape (sized / cleared here).  Consumes exactly the RNG
     * words runShot's draw pass would.
     */
    void drawTape(const Rng &shot_rng, ShotTape &tape);

    /** Replay a previously drawn tape from the |0...0> state and
     *  return the outcome key (the replay half of runShot). */
    uint64_t replayShot(const ShotTape &tape);

    /** Shots replayed on the no-error fast stream so far. */
    uint64_t fastShots() const { return fastShots_; }

    /** Total shots executed so far. */
    uint64_t totalShots() const { return totalShots_; }

  private:
    /** Replay every op of @p stream against the current state,
     *  applying @p tape's events at their ops. */
    void replayStream(const std::vector<OpRef> &stream,
                      const ShotTape &tape);

    const ExecutionPlan &plan_;
    const ShotProgram &prog_;
    StateVector sv_;
    OutcomePacker packer_;

    Rng gateRng_;
    std::vector<Rng> qubitRng_;
    std::vector<double> ouVal_;

    ShotTape tape_; //!< runShot's reusable tape

    uint64_t fastShots_ = 0;
    uint64_t totalShots_ = 0;
};

} // namespace adapt

#endif // ADAPT_NOISE_COMPILED_HH
