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

#include <cstdint>
#include <vector>

#include "circuit/circuit.hh"
#include "common/matrix2.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace adapt
{

/**
 * A pure quantum state over n qubits (2^n complex amplitudes).
 *
 * The vector keeps a *live width*: every amplitude at an index
 * >= 2^liveQubits() is exactly zero, i.e. qubits liveQubits() and up
 * are all in |0>.  Every sweep covers only the 2^live prefix, so a
 * qubit costs nothing until an op first touches it.  Ops that can move
 * amplitude onto a qubit above the prefix (apply1Q, CX, SWAP, a
 * collapse, a decay) first widen the prefix to cover their operands;
 * growing is free, because the tail is already zero.  Reads and diagonal ops on a
 * qubit above the prefix (populationOne, applyPhase, CZ) give exact
 * zeros or no-ops without widening, because their loops never reach
 * those indices.  Sweeping the prefix gives the same amplitudes as
 * sweeping the full register, and bit-identical reductions: the
 * skipped amplitudes are zeros, and adding zeros to a sum changes no
 * bit of it.
 */
class StateVector
{
  public:
    /** Initialize to |0...0> at the minimum live width. */
    explicit StateVector(int num_qubits);

    /**
     * Rewind to |0...0> without reallocating (per-shot reuse).  Clears
     * only the live prefix, which holds every non-zero amplitude, and
     * returns to the minimum live width (one qubit, so a sweep always
     * covers at least two amplitudes).
     */
    void reset();

    /**
     * Overwrite all amplitudes from @p src (a state prepared outside
     * the op API, such as a full-width reference for tests).  Restores
     * the full live width, since @p src may have amplitude anywhere.
     *
     * @pre count == dim().
     */
    void setAmplitudes(const Complex *src, size_t count);

    int numQubits() const { return numQubits_; }
    size_t dim() const { return amps_.size(); }

    /** Qubits in the live prefix: one past the highest qubit an op has
     *  widened it to since the last reset() (at least one). */
    int liveQubits() const { return live_; }

    Complex amplitude(uint64_t basis) const { return amps_.at(basis); }

    /** Apply an arbitrary single-qubit unitary to qubit @p q. */
    void apply1Q(const Matrix2 &u, QubitId q);

    /**
     * Fast diagonal phase: multiply every |1>_q amplitude by
     * e^{i phi} (physically identical to RZ(phi) on @p q).
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

    /** Apply any unitary Gate (dispatches on arity). */
    void applyGate(const Gate &gate);

    /**
     * Apply a sequence of unitary gates, fusing each run of
     * consecutive single-qubit gates on the same qubit into one 2x2
     * matrix product before touching the state.  Equivalent to
     * calling applyGate() per gate (to floating-point round-off),
     * but sweeps the 2^n amplitudes once per run instead of once per
     * gate.  Non-unitary gates other than I/Barrier/Delay (which are
     * skipped) are rejected.
     */
    void applyFused(const std::vector<Gate> &gates);

    /** Probability of measuring the full-register basis state. */
    double probability(uint64_t basis) const;

    /** All 2^n basis probabilities. */
    std::vector<double> probabilities() const;

    /** Probability that qubit @p q reads 1. */
    double populationOne(QubitId q) const;

    /**
     * Sample one full-register outcome (does not collapse).
     *
     * The first draw after any state mutation builds a cumulative
     * weight table (O(2^n)); subsequent draws binary-search it
     * (O(n)), so repeated sampling of a fixed state is cheap.  Never
     * returns a zero-probability basis state.
     */
    uint64_t sample(Rng &rng) const;

    /**
     * Projectively measure one qubit: samples the outcome with the
     * Born rule, collapses the state, and re-normalizes.
     */
    bool measureCollapse(QubitId q, Rng &rng);

    /**
     * measureCollapse with a pre-drawn uniform variate in [0, 1)
     * (compiled shot replay: the RNG word was reserved by the draw
     * pass).  Bit-identical to measureCollapse(q, rng) when
     * @p uniform_draw equals the value rng.uniform() would return.
     */
    bool measureCollapse(QubitId q, double uniform_draw);

    /**
     * Amplitude-damping trajectory step on one qubit: with the
     * physically correct branch probabilities either the decay Kraus
     * K1 (|1> -> |0>) or the no-decay Kraus K0 fires; the state is
     * re-normalized.
     *
     * @param gamma Decay probability 1 - exp(-t / T1) for the step.
     */
    void applyAmplitudeDamping(QubitId q, double gamma, Rng &rng);

    double norm() const;
    void normalize();

  private:
    /** Invalidate sampling caches; call before any amplitude write. */
    void touch() { sampleCacheValid_ = false; }

    /** Amplitudes in the live prefix. */
    uint64_t liveDim() const { return uint64_t{1} << live_; }

    /** Widen the live prefix to include qubit @p q; call before an op
     *  that can move amplitude onto @p q's |1> half. */
    void cover(QubitId q)
    {
        if (q >= live_)
            grow(q);
    }

    void grow(QubitId q);

    /** Zero the non-@p outcome branch of qubit @p q and renormalize
     *  (shared tail of the two measureCollapse overloads). */
    bool collapseTo(QubitId q, bool outcome);

    void buildSampleCache() const;

    int numQubits_;
    int live_ = 1;
    std::vector<Complex> amps_;

    /** Lazily built inclusive prefix sums of basis probabilities
     *  (see sample()); valid only while sampleCacheValid_. */
    mutable std::vector<double> cumulative_;
    mutable uint64_t lastNonzero_ = 0;
    mutable bool sampleCacheValid_ = false;
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
