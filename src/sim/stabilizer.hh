/**
 * @file
 * Aaronson-Gottesman stabilizer (CHP) simulator.
 *
 * Clifford circuits are efficiently simulable classically [Aaronson &
 * Gottesman 2004] — the insight (Insight #1, Sec. 4.2) that makes
 * Clifford Decoy Circuits practical: the noise-free output of a decoy
 * is obtained here at polynomial cost even for 100-qubit programs
 * (Table 2's scalability experiment).
 *
 * The tableau is bit-packed (64 qubits per word) so wide decoys stay
 * fast; rows are 2n+1 as in the original paper (the scratch row is
 * used during measurement).
 */

#ifndef ADAPT_SIM_STABILIZER_HH
#define ADAPT_SIM_STABILIZER_HH

#include <cstdint>
#include <vector>

#include "circuit/circuit.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace adapt
{

/** Stabilizer state over n qubits in tableau form. */
class StabilizerState
{
  public:
    /** Initialize to |0...0>. */
    explicit StabilizerState(int num_qubits);

    /** Rewind to |0...0> without reallocating. */
    void reset();

    int numQubits() const { return numQubits_; }

    /** @name Clifford generators @{ */
    void applyH(QubitId q);
    void applyS(QubitId q);
    void applySdg(QubitId q);
    void applyX(QubitId q);
    void applyY(QubitId q);
    void applyZ(QubitId q);
    void applySX(QubitId q);
    void applySXdg(QubitId q);
    void applyCX(QubitId control, QubitId target);
    void applyCZ(QubitId a, QubitId b);
    void applySwap(QubitId a, QubitId b);
    /** @} */

    /**
     * Apply any Clifford gate instance, including RZ / RX / RY / U1
     * whose angles are multiples of pi/2.
     *
     * Non-Clifford instances — including rotation angles that merely
     * come close to a quarter turn — throw UsageError; nothing is
     * ever silently rounded onto the group.
     *
     * @pre gate.isClifford()
     */
    void applyGate(const Gate &gate);

    /**
     * Measure qubit @p q in the computational basis, collapsing the
     * state.  Random outcomes consume one draw from @p rng.
     */
    bool measure(QubitId q, Rng &rng);

    /**
     * Collapse qubit @p q onto the given measurement outcome without
     * consuming randomness (the post-selected branch of measure()).
     *
     * @pre The outcome has non-zero probability.
     */
    void postselect(QubitId q, bool outcome);

    /**
     * Relaxation jump: collapse the |1> component onto |0>.
     *
     * Semantically identical to postselect(q, true) followed by
     * applyX(q), but as one direct tableau update: the pivot scan
     * runs once, and the deterministic branch skips postselect's
     * outcome re-derivation (a full scratch-row accumulation)
     * entirely — the caller fires the jump with probability
     * proportional to populationOne(q), which already established
     * that the |1> component exists, making the re-derivation pure
     * overhead.  The collapse itself (rowMult cleanup around the
     * pivot) is inherent: amplitude damping is a non-unital channel,
     * so no collapse-free Pauli/sign update can represent it on a
     * superposed qubit — that is why the random branch still pays
     * postselection cost.
     *
     * @pre populationOne(q) > 0 — unchecked; calling this on a qubit
     *      deterministically in |0> silently flips it to |1>.
     */
    void applyDecayJump(QubitId q);

    /**
     * Pauli that maps the post-measurement state of one Z_q outcome
     * branch onto the other: a stabilizer generator of the *current*
     * state anticommuting with Z_q (the measurement pivot row).
     *
     * Returns false (outputs untouched) when measuring @p q is
     * deterministic — there is no second branch.  Otherwise fills
     * @p x_support / @p z_support with the qubits carrying an X / Z
     * factor (sign omitted; frames ignore global phase) and returns
     * true.  This is what the batched Pauli-frame engine records per
     * random measurement: XORing this Pauli into a shot's frame flips
     * that shot onto the opposite outcome branch exactly.
     */
    bool measureFlipSupport(QubitId q, std::vector<QubitId> &x_support,
                            std::vector<QubitId> &z_support) const;

    /**
     * True if measuring @p q would give a deterministic outcome
     * (i.e. Z_q commutes with the stabilizer group).
     */
    bool isDeterministic(QubitId q) const;

    /** Probability that qubit @p q reads 1: always 0, 1/2, or 1 for
     *  a stabilizer state.  Uses the scratch row; logical state is
     *  untouched. */
    double populationOne(QubitId q);

    /**
     * Representation equality: identical destabilizer / stabilizer
     * rows and signs (the scratch row is ignored).  Two equal gate
     * sequences — or sequences equal up to global phase — produce
     * representation-equal tableaus, so this is the workhorse of the
     * conjugation-identity property tests.
     */
    bool operator==(const StabilizerState &other) const;

  private:
    int numQubits_;
    int words_;

    /** Row-major packed bits: rows 0..n-1 destabilizers, n..2n-1
     *  stabilizers, row 2n scratch. */
    std::vector<uint64_t> x_;
    std::vector<uint64_t> z_;
    std::vector<uint8_t> r_;

    bool getX(int row, int col) const;
    bool getZ(int row, int col) const;
    void setX(int row, int col, bool v);
    void setZ(int row, int col, bool v);
    void rowCopy(int dst, int src);
    void rowMult(int dst, int src); //!< dst := dst * src (group law)
    void rowSetZ(int row, int col); //!< row := +Z_col

    /** Stabilizer row index with X on @p q, or -1 (deterministic). */
    int measurePivot(QubitId q) const;

    /** Collapse a random-outcome measurement around @p pivot and
     *  record @p outcome in its sign. */
    void collapse(QubitId q, int pivot, bool outcome);

    /** Outcome of a deterministic measurement (uses scratch row). */
    bool deterministicOutcome(QubitId q);
};

/**
 * Sample the output distribution of a Clifford circuit by repeated
 * tableau runs.  Measure gates record into their classical bits.
 *
 * @pre circuit.isClifford()
 */
Distribution cliffordSample(const Circuit &circuit, int shots, Rng &rng);

} // namespace adapt

#endif // ADAPT_SIM_STABILIZER_HH
