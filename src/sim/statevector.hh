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
 * qubit costs nothing until an op first touches it, and nothing after
 * its final measurement.  Ops that can move amplitude onto a qubit
 * above the prefix (apply1Q, CX, SWAP, a collapse, a decay) first
 * widen the prefix to cover their operands; growing is free, because
 * the tail is already zero.  Reads and diagonal ops on a qubit above
 * the prefix (populationOne, applyPhase, CZ) give exact zeros or
 * no-ops without widening, because their loops never reach those
 * indices.  The prefix also shrinks: measureRetire removes a measured
 * qubit's bit, compacting the outcome half into the low half.
 * Sweeping the prefix gives the same amplitudes as sweeping the full
 * register, and bit-identical reductions: the skipped amplitudes are
 * zeros, and adding zeros to a sum changes no bit of it.
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
     *  widened it to since the last reset(), less one per qubit
     *  measureRetire removed from inside it (at least one). */
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
     * Projectively measure one qubit: samples the outcome with the
     * Born rule, collapses the state, and re-normalizes.  Draws
     * exactly one word from @p rng, rng.bernoulli(P(1)), whatever the
     * state, so a shot's RNG consumption never depends on its data.
     */
    bool measureCollapse(QubitId q, Rng &rng);

    /**
     * Measure qubit @p q for the last time and remove its bit from the
     * register (same Born rule and single draw as measureCollapse).  For
     * q >= 1 every bit above q shifts down by one (retireBit() applies
     * the same shift to a qubit -> bit table):
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

    int numQubits_;
    int live_ = 1;
    std::vector<Complex> amps_;
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
