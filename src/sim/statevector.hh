/**
 * @file
 * Dense state-vector simulator.
 *
 * Serves three roles in the reproduction: (1) the ideal (error-free)
 * reference distributions that define Fidelity = 1 - TVD (Sec. 5.4),
 * (2) the coherent-noise backend of the simulated "machine" (noise
 * trajectories apply exact RZ(phi) idle errors and sampled Pauli
 * errors to the state), and (3) exact simulation of Seeded Decoy
 * Circuits, which contain a few non-Clifford gates.
 *
 * Qubit 0 is the least-significant bit of a basis index.
 */

#ifndef ADAPT_SIM_STATEVECTOR_HH
#define ADAPT_SIM_STATEVECTOR_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hh"
#include "common/logging.hh"
#include "common/matrix2.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace adapt
{

/**
 * A pure quantum state over n qubits (2^n complex amplitudes).
 *
 * Live width: every amplitude at an index >= 2^liveQubits() is exactly
 * zero, i.e. qubits liveQubits() and up are all in |0>.  Every sweep
 * covers only the 2^live prefix, so a qubit costs nothing until its
 * amplitudes are first swept, and nothing after its final measurement.
 * A sweep that can move amplitude onto a bit above the prefix (a flush
 * of a pending operator, CX, SWAP, a collapse, a decay) first widens
 * the prefix to cover its operands; growing is free, because the tail
 * is already zero.  Reads and diagonal ops on a bit above the prefix
 * give exact zeros or no-ops without widening, because their loops
 * never reach those indices.  measureRetire shrinks the prefix,
 * compacting a measured bit's outcome half into the low half.
 * Sweeping the prefix gives the same amplitudes as sweeping the full
 * register, and bit-identical reductions: the skipped amplitudes are
 * zeros, and adding zeros to a sum changes no bit of it.
 *
 * Lazy single-qubit operators: each bit holds a pending 2x2 operator,
 * none, diagonal or general.  apply1Q and applyPhase only multiply into
 * it, and a bit is swept with its product only when an op needs its
 * amplitudes (the "virtual Z" of McKay et al., PRA 96, 022330, 2017,
 * extended to any 2x2 as in qsim's single-qubit fusion):
 *  - always: CX target, decay jump, and the reads amplitude(),
 *    probability() and probabilities(), which flush every bit;
 *  - only a general operator: CX control, CZ operands, populationOne
 *    and a collapse (a diagonal one commutes with each of them);
 *  - never: SWAP exchanges its operands' operators; norm(),
 *    normalize() and reset() ignore them (they are unitary).
 * A diagonal operator is dropped as a global phase after a collapse of
 * its bit, and whenever its bit is above the live prefix (the bit is
 * |0> there).  So a DD train on a qubit that never interacts costs one
 * 2x2 product per pulse and no sweep.  While the prefix holds at most
 * kEagerLiveQubits qubits, an op on a bit inside it is swept at once
 * (after that bit's pending operator): below 64 amplitudes holding the
 * op costs more than the sweep it saves.
 *
 * Against sweeping every op at once, amplitudes match to last-bit
 * rounding (2x2 products come before the sweep, and pending operators
 * on different bits flush in ascending bit order) and up to a global
 * phase (the dropped diagonals).  Probabilities and populations carry
 * no global phase.  The result is a pure function of the call
 * sequence, so two engines that make the same calls stay bit-identical.
 * Reads flush, so they are not const.
 */
class StateVector
{
  public:
    /** Initialize to |0...0> at the minimum live width. */
    explicit StateVector(int num_qubits);

    /**
     * Rewind to |0...0> without reallocating (per-shot reuse).  Clears
     * only the live prefix, which holds every non-zero amplitude, drops
     * every pending operator unswept, and returns to the minimum live
     * width (one qubit, so a sweep always covers at least two
     * amplitudes).
     */
    void reset();

    /**
     * Overwrite all amplitudes from @p src (a state prepared outside
     * the op API, such as a full-width reference for tests).  Restores
     * the full live width, since @p src may have amplitude anywhere,
     * and drops every pending operator.
     *
     * @pre count == dim().
     */
    void setAmplitudes(const Complex *src, size_t count);

    int numQubits() const { return numQubits_; }
    size_t dim() const { return amps_.size(); }

    /** Qubits in the live prefix: one past the highest bit a sweep has
     *  widened it to since the last reset(), less one per bit
     *  measureRetire removed from inside it (at least one).  Reading it
     *  flushes nothing, so pending operators have not widened it yet. */
    int liveQubits() const { return live_; }

    /** One amplitude, after flushing every pending operator. */
    Complex amplitude(uint64_t basis);

    /**
     * Apply a single-qubit unitary to qubit @p q: multiplied into its
     * pending operator, unless the prefix is narrow (see the class).
     * Diagonal iff both off-diagonal entries are zero.
     *
     * @pre @p u is unitary (norm() ignores pending operators).
     */
    void apply1Q(const Matrix2 &u, QubitId q);

    /**
     * Diagonal phase: multiply every |1>_q amplitude by e^{i phi}
     * (physically identical to RZ(phi) on @p q), held in @p q's pending
     * operator like apply1Q.
     */
    void applyPhase(QubitId q, double phi);

    /**
     * Relaxation jump: collapse qubit @p q's |1> component onto |0>
     * and re-normalize (the K1 Kraus branch of amplitude damping).
     *
     * @pre The |1> population is non-negligible.
     */
    void applyDecayJump(QubitId q);

    void applyCX(QubitId control, QubitId target);
    void applyCZ(QubitId a, QubitId b);
    void applySwap(QubitId a, QubitId b);

    /** Apply any unitary Gate (dispatches on arity); I, Barrier and
     *  Delay do nothing. */
    void applyGate(const Gate &gate);

    /** Probability of measuring the full-register basis state. */
    double probability(uint64_t basis);

    /** All 2^n basis probabilities. */
    std::vector<double> probabilities();

    /** Probability that qubit @p q reads 1. */
    double populationOne(QubitId q);

    /**
     * Projectively measure one qubit: samples the outcome with the
     * Born rule, collapses the state, and re-normalizes.  Draws
     * exactly one word from @p rng, rng.bernoulli(P(1)), whatever the
     * state, so a shot's RNG consumption never depends on its data.
     */
    bool measureCollapse(QubitId q, Rng &rng);

    /**
     * Measure qubit @p q for the last time and remove its bit from the
     * register (same Born rule and single draw as measureCollapse).  For
     * q >= 1 every bit above q shifts down by one, its pending operator
     * with it (retireBit() applies the same shift to a qubit -> bit
     * table):
     *  - q inside the prefix: the outcome half's runs of 2^q amplitudes
     *    move down into the low half in ascending order, the vacated
     *    upper half is zeroed, the live width drops by one, and the
     *    new prefix is normalized;
     *  - q above the prefix: the qubit is in |0>, so the outcome is 0
     *    and no amplitude moves (the prefix is still normalized, as
     *    measureCollapse would).
     * Qubit 0 collapses in place and keeps its bit: the sweeps need
     * two amplitudes, and dropping bit 0 would move amplitudes between
     * the even / odd reduction lanes.
     *
     * Bit-identical to measureCollapse followed by deleting bit q:
     * dropping a bit >= 1 keeps every surviving amplitude's parity and
     * order, and the zeros the collapse leaves add nothing to a sum,
     * so every later reduction adds the same terms in the same lanes.
     */
    bool measureRetire(QubitId q, Rng &rng);

    double norm() const;
    void normalize();

  private:
    /** What is known of a bit's pending operator. */
    enum class Pending : uint8_t
    {
        None,
        Diagonal,
        General,
    };

    struct PendingOp
    {
        Matrix2 u;
        Pending kind = Pending::None;
    };

    /**
     * Widest live prefix at which an op on a bit inside it is swept at
     * once.  At 6 qubits (64 amplitudes) the sweep costs about what
     * holding the op costs, and QPEA-5 lives there (bench_shot_throughput
     * records the rows on both sides).
     */
    static constexpr int kEagerLiveQubits = 6;

    /** Amplitudes in the live prefix. */
    uint64_t liveDim() const { return uint64_t{1} << live_; }

    /** Widen the live prefix to include bit @p q; call before a sweep
     *  that can move amplitude onto @p q's |1> half. */
    void cover(QubitId q) { live_ = std::max(live_, q + 1); }

    /** UsageError unless 0 <= q < numQubits(). */
    void check(QubitId q) const
    {
        require(q >= 0 && q < numQubits_,
                "qubit out of range for the state vector");
    }

    /** Whether an op on bit @p q is swept at once. */
    bool eager(QubitId q) const
    {
        return live_ <= kEagerLiveQubits && q < live_;
    }

    /** Sweep bit @p q's pending operator, if any, and clear it. */
    void flush(QubitId q)
    {
        if (pending_[static_cast<size_t>(q)].kind != Pending::None)
            sweepPending(q);
    }

    /** flush() a bit that holds an operator. */
    void sweepPending(QubitId q);

    /** flush() only a general operator. */
    void flushGeneral(QubitId q)
    {
        if (pending_[static_cast<size_t>(q)].kind == Pending::General)
            flush(q);
    }

    /** flush() every bit, in ascending order. */
    void flushAll();

    /** Forget every pending operator. */
    void dropPending();

    int numQubits_;
    int live_ = 1;
    std::vector<Complex> amps_;
    std::vector<PendingOp> pending_; //!< one per bit
};

/**
 * Instruction set of the dense sweep kernels (apply1Q, applyPhase,
 * populationOne, norm, normalize) this process runs: "avx2" when the
 * CPU supports AVX2, else "scalar".  Chosen once per process from the
 * CPU, not from build flags, so a portable binary runs the AVX2
 * sweeps wherever it can.  Both choices give bit-identical results,
 * reductions included, so outputs do not depend on the host.
 */
const char *denseKernelIsa();

/**
 * Apply StateVector::measureRetire's bit removal to a qubit ->
 * state-vector-bit table: qubit @p q's entry becomes -1 and, unless q
 * held bit 0 (which collapses in place), every entry above it drops by
 * one.  The dense engines keep one such table per shot and restore it
 * from the plan's layout at shot start.
 */
void retireBit(std::vector<int> &sv_bit, QubitId q);

/**
 * Exact output distribution of a noiseless circuit over its classical
 * bits.  The circuit is first restricted to the qubits it actually
 * touches, so a 27-qubit routed executable with 8 active qubits costs
 * 2^8, not 2^27.
 *
 * @pre The circuit's Measure gates are terminal for their qubits.
 */
Distribution idealDistribution(const Circuit &circuit);

/**
 * Restrict a circuit to its active qubits (those appearing in at
 * least one gate), relabelling them densely.  Classical bits are
 * preserved.
 */
Circuit restrictToActiveQubits(const Circuit &circuit);

} // namespace adapt

#endif // ADAPT_SIM_STATEVECTOR_HH
