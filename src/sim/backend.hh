/**
 * @file
 * Pluggable simulator backends for the trajectory engine.
 *
 * The paper's key scalability insight (Sec. 4.2, Table 2) is that
 * Clifford decoy circuits are classically simulable at polynomial
 * cost.  SimBackend abstracts the per-shot state the Monte-Carlo
 * engine mutates, with two implementations:
 *
 *  - DenseBackend: the exponential state vector.  Exact for any gate
 *    set and any noise channel (including coherent idle phases), but
 *    capped at ~26 qubits.
 *  - PauliFrameBackend: an Aaronson-Gottesman stabilizer tableau.
 *    Clifford gates and stochastic Pauli events (gate depolarizing,
 *    white dephasing, thinned T1 jumps, measurement flips) propagate
 *    in O(n) words per gate, so noisy Clifford executables — which is
 *    what all DD-padded decoy and characterization circuits are — run
 *    in O(n*m) per shot instead of O(2^n * m).  Coherent idle phases
 *    are applied as their Pauli twirl (Z with probability
 *    sin^2(phi/2)), an approximation that loses DD refocusing; the
 *    Auto dispatcher therefore only routes here when the enabled
 *    noise channels are Pauli-expressible (see
 *    NoiseFlags::pauliExpressible()).
 *
 * NoisyMachine::run picks a backend per executable via BackendKind.
 */

#ifndef ADAPT_SIM_BACKEND_HH
#define ADAPT_SIM_BACKEND_HH

#include <memory>
#include <string>
#include <vector>

#include "circuit/circuit.hh"
#include "common/matrix2.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "sim/stabilizer.hh"
#include "sim/statevector.hh"

namespace adapt
{

/** Which simulator implementation executes the shots. */
enum class BackendKind
{
    Auto,       //!< inspect the executable + noise flags, pick the
                //!< stabilizer fast path when it is exact
    Dense,      //!< force the dense state vector
    Stabilizer, //!< force the Pauli-frame/stabilizer tableau
};

/** Name for logs: "auto", "dense", "stabilizer". */
std::string backendKindName(BackendKind kind);

/**
 * Matrix of X / Y / Z in the engine's Pauli packing (1 = X, 2 = Y,
 * 3 = Z).  Shared by DenseBackend::applyPauli and the compiled shot
 * replay so both paths multiply the state by the identical matrix.
 *
 * @pre pauli is 1, 2, or 3.
 */
const Matrix2 &pauliMatrix(int pauli);

/**
 * The per-shot simulation surface the trajectory engine drives.
 *
 * A backend owns one register's worth of state; init() rewinds it to
 * |0...0> so one instance is reused across the shots of a chunk.
 * Pauli indices follow the engine's packing: 0 = I, 1 = X, 2 = Y,
 * 3 = Z.
 */
class SimBackend
{
  public:
    virtual ~SimBackend() = default;

    virtual BackendKind kind() const = 0;
    virtual int numQubits() const = 0;

    /** Reset to |0...0> (start of a shot). */
    virtual void init() = 0;

    /** Apply any unitary gate this backend supports. */
    virtual void applyGate(const Gate &gate) = 0;

    /** Apply a Pauli error (0 = I is a no-op). */
    virtual void applyPauli(int pauli, QubitId q) = 0;

    /**
     * Coherent idle Z phase accrued over an idle gap (OU detuning,
     * crosstalk).  Dense: exact diagonal phase.  Pauli frame: the
     * Pauli twirl of the channel — Z with probability sin^2(phi/2),
     * drawn from @p rng.
     */
    virtual void applyIdlePhase(QubitId q, double phi, Rng &rng) = 0;

    /** Probability that qubit @p q reads 1 (exact on both backends;
     *  a stabilizer qubit is always at 0, 1/2, or 1). */
    virtual double populationOne(QubitId q) = 0;

    /** Relaxation jump: collapse the |1> component onto |0>.  The
     *  engine fires this with probability gamma * populationOne(). */
    virtual void applyDecayJump(QubitId q) = 0;

    /**
     * Projectively measure one qubit, collapsing the state.  When
     * @p retire is set no later op touches @p q (PlanStep::retires):
     * the dense backend then removes the qubit from its state vector
     * (StateVector::measureRetire); the tableau ignores the hint.
     */
    virtual bool measure(QubitId q, Rng &rng, bool retire) = 0;

    /**
     * True if the backend consumes fused 2x2 matrix products via
     * apply1Q(); false when gates must be replayed one by one (the
     * tableau has no dense matrix representation).
     */
    virtual bool fusesMatrices() const = 0;

    /** Apply an arbitrary single-qubit unitary.
     *  @pre fusesMatrices() */
    virtual void apply1Q(const Matrix2 &u, QubitId q) = 0;
};

/**
 * Dense state-vector backend (wraps StateVector).
 *
 * Callers name qubits 0..n-1; the backend addresses the state vector
 * through a qubit -> state-vector-bit table, the identity unless one
 * is given.  The trajectory engine passes ExecutionPlan::svBit, so the
 * interpreted reference lays the state out exactly as the compiled
 * replay does.  A retiring measurement shifts a working copy of the
 * table (retireBit), which init() restores; using a retired qubit
 * afterwards is a usage error.
 */
class DenseBackend final : public SimBackend
{
  public:
    explicit DenseBackend(int num_qubits);

    /** @pre @p sv_bit is a permutation of 0..num_qubits-1. */
    DenseBackend(int num_qubits, std::vector<int> sv_bit);

    BackendKind kind() const override { return BackendKind::Dense; }
    int numQubits() const override { return state_.numQubits(); }
    void init() override;
    void applyGate(const Gate &gate) override;
    void applyPauli(int pauli, QubitId q) override;
    void applyIdlePhase(QubitId q, double phi, Rng &rng) override;
    double populationOne(QubitId q) override;
    void applyDecayJump(QubitId q) override;
    bool measure(QubitId q, Rng &rng, bool retire) override;
    bool fusesMatrices() const override { return true; }
    void apply1Q(const Matrix2 &u, QubitId q) override;

    /** Underlying state, for tests and exact queries (indexed by
     *  state-vector bit).  Not const: its reads flush pending
     *  operators. */
    StateVector &state() { return state_; }

  private:
    QubitId bit(QubitId q) const;

    StateVector state_;
    std::vector<int> startBit_; //!< the layout init() restores
    std::vector<int> svBit_;    //!< this shot's table
};

/**
 * Stabilizer-tableau backend with stochastic Pauli noise (the
 * Pauli-frame fast path).
 */
class PauliFrameBackend final : public SimBackend
{
  public:
    explicit PauliFrameBackend(int num_qubits);

    BackendKind kind() const override { return BackendKind::Stabilizer; }
    int numQubits() const override { return tableau_.numQubits(); }
    void init() override { tableau_.reset(); }
    void applyGate(const Gate &gate) override;
    void applyPauli(int pauli, QubitId q) override;
    void applyIdlePhase(QubitId q, double phi, Rng &rng) override;
    double populationOne(QubitId q) override;
    void applyDecayJump(QubitId q) override;
    bool measure(QubitId q, Rng &rng, bool retire) override;
    bool fusesMatrices() const override { return false; }
    [[noreturn]] void apply1Q(const Matrix2 &u, QubitId q) override;

    /** Underlying tableau, for tests. */
    const StabilizerState &tableau() const { return tableau_; }

  private:
    StabilizerState tableau_;
};

/**
 * Construct a backend instance.
 *
 * @pre kind is concrete (Dense or Stabilizer); Auto must be resolved
 *      by the caller, who knows the executable and noise flags.
 */
std::unique_ptr<SimBackend> makeBackend(BackendKind kind, int num_qubits);

/**
 * Noise-free output distribution of a circuit via the backend layer:
 * Auto restricts to active qubits, then uses exact dense simulation
 * up to @p dense_limit qubits and stabilizer sampling (Clifford
 * circuits only) beyond it.  Forced Dense returns the exact
 * distribution; forced Stabilizer samples @p shots tableau runs.
 */
Distribution idealOutputDistribution(const Circuit &circuit, int shots,
                                     uint64_t seed,
                                     BackendKind kind = BackendKind::Auto,
                                     int dense_limit = 20);

} // namespace adapt

#endif // ADAPT_SIM_BACKEND_HH
