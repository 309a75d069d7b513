/**
 * @file
 * Bit-packed batch Pauli-frame engine for the stabilizer path.
 *
 * The per-shot stabilizer backend (PauliFrameBackend) replays the
 * full Aaronson-Gottesman tableau for every shot — O(n * m) word
 * work per shot even though all shots of a job run the identical
 * Clifford executable and differ only in which stochastic Pauli
 * events fired.  This engine applies the standard Stim-style fix:
 *
 *  - The noiseless *reference* simulation runs ONCE per job (at
 *    compile time, as buildFrameSkeleton classifies its op stream),
 *    fixing every
 *    measurement's reference outcome and, for random-outcome
 *    measurements, the "branch-flip" Pauli that maps one outcome
 *    branch onto the other.
 *  - Each shot is then represented only by its *Pauli frame* — the
 *    Pauli deviation P_s of the shot state P_s |psi_ref> from the
 *    reference — stored column-major in bit planes: one x bit and
 *    one z bit per (qubit, shot).  kFrameLanes shots (256)
 *    propagate per pass; every Clifford gate becomes a handful of
 *    word-wide XOR / swap operations on the planes, and every
 *    stochastic Pauli event becomes a Bernoulli-thresholded random
 *    bit mask.
 *
 * Exactness.  For Clifford circuits with stochastic Pauli noise and
 * measurement flips, frame propagation samples exactly the same law
 * as the per-shot tableau:
 *  - Clifford conjugation P -> G P G^dagger is linear over GF(2) on
 *    the (x, z) bits (signs never affect outcomes).
 *  - A deterministic measurement of the reference reads
 *    ref_bit XOR x_frame(q) on a shot.
 *  - A random measurement draws a fresh uniform bit r per shot:
 *    outcome = ref_bit XOR x_frame(q) XOR r, and for r = 1 the
 *    shot's frame absorbs the recorded branch-flip Pauli g (a
 *    stabilizer of the pre-measurement reference anticommuting with
 *    Z_q): g maps the reference's chosen post-measurement branch
 *    onto the opposite branch, so the shot's post-state is again
 *    frame * reference.  (StabilizerState::measureFlipSupport
 *    records g.)
 * The one event a shared-reference frame cannot represent is the T1
 * relaxation jump on a qubit whose reference state is in
 * superposition: the true jump collapses the shot (non-unital).
 * Until a shot's first such jump, the qubit's population is exactly
 * 1/2 at every superposed checkpoint (frames preserve the
 * reference's determinism structure), so the firing events are
 * i.i.d. Bernoulli(gamma / 2) independent of all other randomness.
 * The plane pass samples them as masks; a lane that fires leaves the
 * pass as a FrameTailShot and finishes on the checkpoint's *branch
 * tail* (FrameTail): the rest of the op stream re-resolved against
 * the jumped reference, walked as a single-lane frame.  Tails are one
 * level deep: a lane that fires again at a superposed checkpoint of
 * its tail finishes on the exact tableau, seeded from the tail's start
 * reference walked to that checkpoint for the lane and jumped there.
 * Jumps on reference-deterministic qubits — the dominant case in
 * characterization workloads — stay in-frame: the jump fires against
 * the shot's actual bit (ref XOR x_frame) and is exactly an X flip.
 * The per-shot backend (ExecMode::Interpreted) remains the reference
 * semantics; tests lock TVD / chi-squared equivalence between the
 * two.
 *
 * Determinism contract.  All randomness for the lanes of block b
 * (shots [kFrameLanes * b, kFrameLanes * (b + 1))) comes from a stream
 * forked from (run seed, b) alone and is consumed in op-stream
 * order, so results are bit-identical for any thread count,
 * batch-vs-serial, and independent of how many other shots the job
 * runs.  Rare events (gate errors, T1, readout flips) are drawn
 * sparsely via geometric gap sampling — O(kFrameLanes * p) draws per
 * op instead of kFrameLanes — which is statistically an
 * exact per-lane Bernoulli; the empty mask (the overwhelmingly
 * common case) resolves with a single raw draw compared against a
 * precomputed P(any lane fires) threshold, and that same draw seeds
 * the first gap position when the mask is non-empty.
 */

#ifndef ADAPT_SIM_FRAME_BATCH_HH
#define ADAPT_SIM_FRAME_BATCH_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/gate.hh"
#include "common/flat_accumulator.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "sim/stabilizer.hh"

namespace adapt
{

/** 64-lane words per frame block: 4 x 64 = 256 shots per pass,
 *  swept as four 64-bit words.  The width partitions shots into RNG
 *  blocks, so it is part of the output contract. */
constexpr int kFrameLaneWords = 4;

/** Shots propagated per block. */
constexpr int kFrameLanes = 64 * kFrameLaneWords;

/** Instruction set of the frame-plane kernels: always "scalar" (the
 *  portable 64-bit word sweeps).  Kept so run records name both
 *  engines' kernels. */
const char *frameKernelIsa();

/**
 * GL(2, F2) action of a 1Q Clifford on a frame's (x, z) bit planes —
 * the six invertible classes, pre-fused per pulse train.
 */
enum class Frame1QKind : uint8_t
{
    Hadamard, //!< swap x and z (H, RY quarter turns)
    Phase,    //!< z ^= x (S, Sdg, RZ quarter turns)
    HalfX,    //!< x ^= z (SX, SXdg, RX quarter turns)
    CycleA,   //!< (x, z) -> (z, x ^ z)
    CycleB,   //!< (x, z) -> (x ^ z, x)

    /** Frame no-op (a Pauli train, e.g. DD padding): skipped by the
     *  plane pass, but its named realization still matters to the
     *  exact tableau continuation, where signs are observable. */
    Identity,
};

/**
 * Per-lane Bernoulli(p) mask generator, mode resolved at compile
 * time: Never / Always short-circuit, Sparse draws geometric gaps
 * (cheap for the engine's rare events), Dense compares raw words
 * against a fixed-point threshold (for p large enough that gap
 * sampling would cost more).
 *
 * `thresh` is always the single-lane fixed-point threshold — the
 * Dense per-lane compare, and the single-lane walks' Bernoulli test
 * (one raw draw, `(w >> 11) < thresh`, across every mode).
 * `anyThresh` is the Sparse fast path: the threshold of P(any of a
 * block's kFrameLanes lanes fires); a draw at or above it proves the
 * whole block mask empty without touching libm.
 */
struct FrameBernoulli
{
    enum class Mode : uint8_t { Never, Sparse, Dense, Always };
    Mode mode = Mode::Never;
    double invLog1mP = 0.0;  //!< Sparse: 1 / log1p(-p)
    uint64_t thresh = 0;     //!< bernoulliThreshold(p)
    uint64_t anyThresh = 0;  //!< Sparse: threshold of 1-(1-p)^lanes
};

/** Resolve a probability into its mask-generation mode. */
FrameBernoulli makeFrameBernoulli(double p);

/** A fused single-qubit frame transform: the GL(2, F2) class for the
 *  plane pass, plus a named-gate realization of the train's Clifford
 *  product (up to global phase) for the exact tableau continuation,
 *  where Pauli signs are observable. */
struct Frame1QOp
{
    int q = -1;
    Frame1QKind kind = Frame1QKind::Hadamard;
    uint8_t namedCount = 0;
    std::array<GateType, 6> named{};
};

/** A two-qubit frame transform. */
struct Frame2QOp
{
    int a = -1, b = -1;
    GateType type = GateType::CX;
};

/**
 * The gate-error Bernoullis of one fused pulse train: one per physical
 * pulse, drawn in pulse order at the qubit's rate
 * FrameProgram::pulseErr[q].  Each error fires *inside* the train
 * (after its pulse), but the train was fused into one transform, so
 * the injected uniform Pauli is conjugated through the train's suffix
 * at compile time: errMapped[errOff + i][p - 1] is the (x, z) image of
 * Pauli p after the train's i-th physical pulse, in the engine packing
 * (1 = X, 2 = Y, 3 = Z).
 */
struct FrameErr1QOp
{
    int q = -1;
    uint32_t errOff = 0, errCnt = 0; //!< span of FrameProgram::errMapped
};

/** Two-qubit depolarizing error (uniform non-identity Pauli pair,
 *  injected right after its gate — no conjugation needed). */
struct FrameErr2QOp
{
    int a = -1, b = -1;
    uint32_t step = 0; //!< plan step: the bind reads its cxError
    FrameBernoulli prob{};
};

/** Support of a branch-flip Pauli (sign omitted; frames ignore
 *  global phase): offset / count spans of its X- and Z-carrying
 *  qubits in the owning FrameClasses' flipQubits. */
struct FrameFlip
{
    uint32_t xOff = 0, xCnt = 0;
    uint32_t zOff = 0, zCnt = 0;
};

/** Markovian (T1 + white dephasing) noise over one interval; its
 *  reference class is a FrameClasses::Markov. */
struct FrameMarkovOp
{
    int q = -1;
    double dtUs = 0.0; //!< interval length: the bind's rates read it

    /** The jump at the root class's rate: gamma for deterministic
     *  references (the jump then fires against the shot's actual
     *  bit); the folded gamma * 1/2 for superposed ones (a firing lane
     *  leaves the plane pass for a branch tail, see the file
     *  comment). */
    FrameBernoulli t1{};

    /** Raw gamma threshold: the exact tableau continuation's live
     *  checkpoints (fire = bernoulli(gamma) * bernoulli(p1), p1 read
     *  off the live tableau) and a tail's deterministic ones. */
    uint64_t gammaThresh = 0;

    /** Folded gamma * 1/2 threshold: a tail's superposed checkpoints
     *  (a tail may classify a checkpoint unlike the root). */
    uint64_t halfGammaThresh = 0;

    FrameBernoulli deph{};
};

/** Static Pauli-twirl of a shot-invariant coherent phase (crosstalk
 *  under NoiseFlags::twirlCoherent) over one idle gap: Z with
 *  probability sin^2(phi / 2), phi the crosstalk phase the bind folds
 *  over [gapStart, gapEnd). */
struct FrameTwirlOp
{
    int q = -1;
    double gapStart = 0.0, gapEnd = 0.0; //!< ns
    FrameBernoulli prob{};
};

/** A measurement with its readout errors; its reference outcome is a
 *  FrameClasses::Collapse. */
struct FrameMeasOp
{
    int q = -1;
    int clbit = 0;
    FrameBernoulli err01{}, err10{};
};

/**
 * Mid-circuit reset, executed in-frame as measure-and-correct: a
 * random reference draws a fresh coin per lane (absorbing the
 * branch-flip Pauli exactly like a random measurement), then both
 * the x and z planes of q clear — the post-reset reference has q in
 * |0> exactly (the reference walk postselects / corrects it), so a
 * trivial frame on q is the exact representation of every lane.
 */
struct FrameResetOp
{
    int q = -1;
};

/**
 * Classically-controlled Pauli: the reference applied it iff its own
 * recorded bit (FrameClasses::condRef) read 1, so a lane's frame
 * absorbs the Pauli exactly where its own recorded bit differs — one
 * mask build plus up to two plane XORs.
 */
struct FrameCondOp
{
    int q = -1;
    int condBit = 0;
    uint8_t pauli = 1; //!< engine packing (1 = X, 2 = Y, 3 = Z)
};

/** One entry of the frame op stream. */
struct FrameOpRef
{
    enum class Kind : uint8_t
    {
        F1Q,
        F2Q,
        Err1Q,
        Err2Q,
        Markov,
        Twirl,
        Meas,
        Reset,
        Cond,
    };
    Kind kind;
    uint32_t idx;
};

/**
 * The reference classes of an op-stream suffix ops[from ..): what one
 * noiseless reference decides about each reference-dependent op,
 * filled by the one reference walk (classifyFrameOps in
 * noise/compiled.cc).  A program's own classes start at op 0 from
 * |0...0>; a branch tail's start right after its checkpoint, from the
 * jumped reference.  Entry i of a kind stands for the program's array
 * index base + i: per-kind indices rise with op position, so the ops
 * of a suffix map onto a dense suffix of each array (every base is 0
 * for the program's own classes).
 */
struct FrameClasses
{
    /** A T1 checkpoint: 0 / 1 deterministic reference value of q, 2
     *  superposed (population 1/2) with its branch-flip support g — a
     *  firing lane's frame absorbs g iff its x bit of q reads 1, and
     *  then rides the checkpoint's branch tail.  Always 0 without a
     *  T1 channel. */
    struct Markov
    {
        uint8_t t1Ref = 0;
        FrameFlip flip;
    };

    /** A measure or reset: a random collapse with its branch-flip
     *  support (the reference takes outcome 0), or the deterministic
     *  reference bit (read by measures only). */
    struct Collapse
    {
        bool random = false;
        uint8_t refBit = 0;
        FrameFlip flip;
    };

    uint32_t markovBase = 0, measBase = 0, resetBase = 0, condBase = 0;

    std::vector<Markov> markov;
    std::vector<Collapse> meas, resets;
    std::vector<uint8_t> condRef; //!< reference's recorded condBit
    std::vector<int> flipQubits;  //!< the flip supports' qubits
};

/**
 * A stabilizer job lowered into a frame op stream: every pulse train
 * fused into one of the six GL(2, F2) transforms, the reference
 * simulation's decisions baked in as `classes`, every probability
 * resolved into a mask-generation mode.  buildFrameSkeleton
 * (noise/compiled.hh) emits the unbound program from the plan's
 * structure alone — every rate Never, each rate-carrying op holding
 * what its rate is computed from — and the ProgramCache keeps that as
 * the skeleton; bindFrameProgram copies it and stamps one
 * calibration's rates.  Shared read-only by all shot workers, and the
 * *root* of its job's branch tails: every FrameTail reads its gate,
 * error, twirl and noise-rate ops from these arrays.
 */
struct FrameProgram
{
    int numQubits = 0;
    int numClbits = 1;

    /** Superposed T1 checkpoints among the root classes (branch-tail
     *  sites); 0 means no lane can ever leave the plane pass. */
    uint32_t randomT1Count = 0;

    std::vector<FrameOpRef> ops;

    std::vector<Frame1QOp> f1q;
    std::vector<Frame2QOp> f2q;
    std::vector<FrameErr1QOp> err1q;
    std::vector<FrameErr2QOp> err2q;
    std::vector<FrameMarkovOp> markov;
    std::vector<FrameTwirlOp> twirl;
    std::vector<FrameMeasOp> meas;
    std::vector<FrameResetOp> resets;
    std::vector<FrameCondOp> cond;

    /** Suffix images of every Err1Q train's physical pulses (see
     *  FrameErr1QOp). */
    std::vector<std::array<uint8_t, 3>> errMapped;

    /** Per dense qubit: the gate-error rate of each of its physical
     *  pulses (bindPlan gives every one the qubit's gateError1Q). */
    std::vector<FrameBernoulli> pulseErr;

    FrameClasses classes; //!< ops[0 ..) against the |0...0> reference
};

/**
 * A branch tail: the root program's op stream after one superposed
 * T1 checkpoint of the root fired, re-classified against the jumped
 * reference X_q * postselect(ref, 1).  A tail is an overlay on the
 * root: it reads every gate, error, twirl and noise rate from the
 * root's arrays and stores only its own reference classes.  Compiled
 * lazily by compileFrameTail (noise/compiled.hh).
 */
struct FrameTail
{
    explicit FrameTail(StabilizerState jumped) : ref(std::move(jumped)) {}

    /** Root op index right after the fired checkpoint.  Its residual
     *  dephasing, root.markov[root.ops[start - 1].idx].deph, is the
     *  first draw of the tail walk. */
    uint32_t start = 0;

    FrameClasses classes; //!< root.ops[start ..) against the jump

    /** The jumped reference at start and its recorded clbits: a lane
     *  that fires again inside the tail advances a copy of it to that
     *  checkpoint (walkFrameReference). */
    StabilizerState ref;
    std::vector<uint8_t> refCl;
};

/** Salt spacing the tail-lane streams away from the lane-group
 *  streams: the lane of shot s draws from base.fork(salt + s). */
constexpr uint64_t kFrameTailSalt = uint64_t{1} << 33;

/**
 * A lane whose T1 jump fired at a superposed checkpoint: its frame
 * and classical record, captured at the instant the jump fired, ride
 * the checkpoint's branch tail.
 */
struct FrameTailShot
{
    int64_t shot = 0;  //!< absolute shot index in the job
    uint32_t site = 0; //!< root op index of the firing checkpoint

    /** Pre-jump frame column of the lane, one byte (0 / 1) per
     *  qubit. */
    std::vector<uint8_t> xf, zf;

    /** Recorded outcome bits at fire time, packed 64 clbits per
     *  word. */
    std::vector<uint64_t> clWords;
};

/** Counters of how a frame-batch run's lanes left the plane pass. */
struct FrameBatchStats
{
    /** Lanes that finished in-frame on their branch tail. */
    int64_t tailShots = 0;

    /** Lanes that fired a second time inside their tail and finished
     *  on the exact tableau. */
    int64_t deferredShots = 0;

    /** Most superposed fires any one lane took: 0 when no lane left
     *  the plane pass, at most 2. */
    int maxTailDepth = 0;

    /** Fold @p other into this (chunk aggregation). */
    void merge(const FrameBatchStats &other)
    {
        tailShots += other.tailShots;
        deferredShots += other.deferredShots;
        maxTailDepth = maxTailDepth > other.maxTailDepth
                           ? maxTailDepth
                           : other.maxTailDepth;
    }
};

class FrameTailCache; // noise/compiled.hh

/**
 * Per-chunk worker that executes a FrameProgram in kFrameLanes-shot
 * blocks: one walk of the op stream per block, touching all
 * kFrameLaneWords words of each plane per op.  Owns the frame bit
 * planes, the outcome planes, and the packer; one instance serves all
 * the blocks of a chunk.
 *
 * Named "backend" for symmetry with PauliFrameBackend, but the
 * execution surface is deliberately per-block rather than per-shot —
 * it does not implement SimBackend, whose one-state-one-shot API is
 * exactly the overhead this engine removes.
 */
class FrameBatchBackend
{
  public:
    explicit FrameBatchBackend(const FrameProgram &prog);

    /**
     * Execute lanes [block * kFrameLanes, block * kFrameLanes + lanes):
     * count the lanes that finish the plane pass into @p hist; lanes
     * whose T1 jump fires at a superposed checkpoint leave the pass
     * as FrameTailShot snapshots in @p tails, for the caller to
     * drain.
     *
     * @param base Job-level RNG base; the block's stream is forked
     *             from it by absolute block index, so a block's
     *             outcomes are independent of chunking and of the
     *             job's total shot count.
     * @param lanes Live lanes in this block (the final block of a
     *              job may be partial).
     *              @pre 1 <= lanes <= kFrameLanes
     */
    void runBlock(const Rng &base, int64_t block, int lanes,
                  FlatAccumulator &hist,
                  std::vector<FrameTailShot> &tails);

  private:
    const FrameProgram &prog_;
    std::vector<uint64_t> x_;    //!< [qubit * kFrameLaneWords + w]
    std::vector<uint64_t> z_;
    std::vector<uint64_t> bits_; //!< [clbit * kFrameLaneWords + w]
    OutcomePacker packer_;
    Rng blockRng_;
    uint64_t tailMask_[kFrameLaneWords] = {}; //!< lanes that left the pass

    uint64_t *xPlane(int q) { return &x_[static_cast<size_t>(q) * kFrameLaneWords]; }
    uint64_t *zPlane(int q) { return &z_[static_cast<size_t>(q) * kFrameLaneWords]; }

    /**
     * Draw one kFrameLanes-wide Bernoulli mask into @p out.
     *
     * Returns false — with @p out untouched — when the mask is
     * provably all-zero (Never, or the Sparse single-draw fast path);
     * callers skip their whole update in that common case.
     */
    bool drawMask(const FrameBernoulli &b, uint64_t *out);

    /** Walk the op stream once over all lane words. */
    void runOps(int64_t block, int lanes,
                std::vector<FrameTailShot> &tails);

    /** Count the surviving lanes' outcome planes into @p hist. */
    void foldOutcomes(int lanes, FlatAccumulator &hist);

    /** Capture lane (@p w, @p bit)'s frame and classical columns at
     *  the instant its T1 jump fired at the checkpoint at root op
     *  index @p site. */
    FrameTailShot snapshotLane(int w, int bit, int64_t shot,
                               uint32_t site) const;
};

/**
 * Finish every lane in @p tails (see FrameTailShot), counting the
 * outcomes into @p hist, and clear the list.  Each lane absorbs the
 * checkpoint's branch-flip Pauli iff its x bit of the decaying qubit
 * reads 1, then walks the checkpoint's tail (from @p tails_cache) as
 * a scalar frame over the root's op stream, reading the
 * reference-dependent fields from the tail's classes.  A lane that
 * fires again at a superposed checkpoint of the tail finishes on an
 * exact tableau walk of the root stream, seeded from the tail's start
 * reference walked to that checkpoint and jumped there.  Each lane
 * consumes the dedicated stream base.fork(kFrameTailSalt + shot), so
 * the fold stays chunking- and wave-invariant: a chunk may drain
 * after any group of blocks without perturbing a single outcome.
 * @p stats accumulates how lanes finished (never reset here).
 *
 * @param prog  The root program the snapshots were taken from.
 * @param state Scratch tableau of prog.numQubits qubits.
 * @param packer Scratch packer of prog.numClbits bits.
 */
void drainTailShots(const FrameProgram &prog, const Rng &base,
                    std::vector<FrameTailShot> &tails,
                    FrameTailCache &tails_cache, StabilizerState &state,
                    OutcomePacker &packer, FlatAccumulator &hist,
                    FrameBatchStats &stats);

/** @name Tableau actions of frame ops
 *  A fused train's named realization (its Clifford up to global
 *  phase), a two-qubit frame gate, and Pauli @p code in the engine
 *  packing (0 = I, 1 = X, 2 = Y, 3 = Z): the exact tableau
 *  continuation and the frame compiler's reference walks share
 *  these. @{ */
void applyFrameOp(StabilizerState &state, const Frame1QOp &op);
void applyFrameOp(StabilizerState &state, const Frame2QOp &op);
void applyPauliCode(StabilizerState &state, int code, int q);
/** @} */

/**
 * Advance reference @p ref, with its recorded clbits @p refCl,
 * through root.ops[from, to): the tableau actions of gates, the
 * reference's own collapse at random measures and resets (outcome 0),
 * and the conditional Paulis its bits select.  The one reference
 * walk that classifies a program and each of its branch tails
 * advances with it op by op, and a lane's second fire derives its
 * jumped reference with it.
 */
void walkFrameReference(const FrameProgram &root, StabilizerState &ref,
                        std::vector<uint8_t> &refCl, uint32_t from,
                        uint32_t to);

} // namespace adapt

#endif // ADAPT_SIM_FRAME_BATCH_HH
