#include "sim/backend.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "noise/noise_model.hh"

namespace adapt
{

std::string
backendKindName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Auto: return "auto";
      case BackendKind::Dense: return "dense";
      case BackendKind::Stabilizer: return "stabilizer";
    }
    panic("unreachable backend kind");
}

const Matrix2 &
pauliMatrix(int pauli)
{
    static const Matrix2 x = gateMatrix(GateType::X);
    static const Matrix2 y = gateMatrix(GateType::Y);
    static const Matrix2 z = gateMatrix(GateType::Z);
    switch (pauli) {
      case 1: return x;
      case 2: return y;
      case 3: return z;
    }
    panic("pauliMatrix: index " + std::to_string(pauli) +
          " is not a non-identity Pauli");
}

// ---------------------------------------------------------- DenseBackend

namespace
{

std::vector<int>
identityBits(int num_qubits)
{
    std::vector<int> bits(static_cast<size_t>(std::max(num_qubits, 0)));
    std::iota(bits.begin(), bits.end(), 0);
    return bits;
}

} // namespace

DenseBackend::DenseBackend(int num_qubits)
    : DenseBackend(num_qubits, identityBits(num_qubits))
{
}

DenseBackend::DenseBackend(int num_qubits, std::vector<int> sv_bit)
    : state_(num_qubits), startBit_(std::move(sv_bit)), svBit_(startBit_)
{
    require(startBit_.size() == static_cast<size_t>(num_qubits),
            "DenseBackend bit table must have one entry per qubit");
}

QubitId
DenseBackend::bit(QubitId q) const
{
    const int b = svBit_[static_cast<size_t>(q)];
    require(b >= 0, "DenseBackend: qubit used after its final measurement");
    return b;
}

void
DenseBackend::init()
{
    state_.reset();
    svBit_ = startBit_;
}

void
DenseBackend::applyGate(const Gate &gate)
{
    Gate placed = gate;
    for (QubitId &q : placed.qubits)
        q = bit(q);
    state_.applyGate(placed);
}

void
DenseBackend::applyPauli(int pauli, QubitId q)
{
    if (pauli != 0)
        state_.apply1Q(pauliMatrix(pauli), bit(q));
}

void
DenseBackend::applyIdlePhase(QubitId q, double phi, Rng &rng)
{
    (void)rng; // exact coherent phase needs no randomness
    state_.applyPhase(bit(q), phi);
}

double
DenseBackend::populationOne(QubitId q)
{
    return state_.populationOne(bit(q));
}

void
DenseBackend::applyDecayJump(QubitId q)
{
    state_.applyDecayJump(bit(q));
}

bool
DenseBackend::measure(QubitId q, Rng &rng, bool retire)
{
    if (!retire)
        return state_.measureCollapse(bit(q), rng);
    const bool outcome = state_.measureRetire(bit(q), rng);
    retireBit(svBit_, q);
    return outcome;
}

void
DenseBackend::apply1Q(const Matrix2 &u, QubitId q)
{
    state_.apply1Q(u, bit(q));
}

// ----------------------------------------------------- PauliFrameBackend

PauliFrameBackend::PauliFrameBackend(int num_qubits)
    : tableau_(num_qubits)
{
}

void
PauliFrameBackend::applyGate(const Gate &gate)
{
    tableau_.applyGate(gate);
}

void
PauliFrameBackend::applyPauli(int pauli, QubitId q)
{
    switch (pauli) {
      case 0: return;
      case 1: tableau_.applyX(q); return;
      case 2: tableau_.applyY(q); return;
      case 3: tableau_.applyZ(q); return;
    }
    panic("applyPauli: index " + std::to_string(pauli) +
          " is not a Pauli");
}

void
PauliFrameBackend::applyIdlePhase(QubitId q, double phi, Rng &rng)
{
    // Pauli twirl of RZ(phi): Z with probability sin^2(phi/2).  This
    // matches the channel's diagonal in the Pauli basis but discards
    // the coherence DD refocusing relies on.  (The trajectory engine
    // twirls centrally under NoiseFlags::twirlCoherent so both
    // backends sample one law; this is the tableau's best rendition
    // for direct backend drivers.)
    if (rng.bernoulli(twirlZProbability(phi)))
        tableau_.applyZ(q);
}

double
PauliFrameBackend::populationOne(QubitId q)
{
    return tableau_.populationOne(q);
}

void
PauliFrameBackend::applyDecayJump(QubitId q)
{
    // The dense jump is (X tensor I) P_1 |psi> renormalized: collapse
    // onto the |1> branch, then flip to |0>.  The tableau does it as
    // one direct update (see StabilizerState::applyDecayJump) instead
    // of the historical postselect(q, true) + applyX(q) composition,
    // which re-scanned for the pivot and re-derived the deterministic
    // outcome the engine's populationOne call had already computed.
    tableau_.applyDecayJump(q);
}

bool
PauliFrameBackend::measure(QubitId q, Rng &rng, bool retire)
{
    (void)retire; // a tableau qubit costs the same measured or not
    return tableau_.measure(q, rng);
}

void
PauliFrameBackend::apply1Q(const Matrix2 &u, QubitId q)
{
    (void)u;
    (void)q;
    panic("PauliFrameBackend cannot apply a raw 2x2 matrix; replay "
          "gates individually (fusesMatrices() is false)");
}

// -------------------------------------------------------------- factory

std::unique_ptr<SimBackend>
makeBackend(BackendKind kind, int num_qubits)
{
    switch (kind) {
      case BackendKind::Dense:
        return std::make_unique<DenseBackend>(num_qubits);
      case BackendKind::Stabilizer:
        return std::make_unique<PauliFrameBackend>(num_qubits);
      case BackendKind::Auto:
        break;
    }
    panic("makeBackend requires a concrete backend kind; resolve "
          "Auto against the executable first");
}

Distribution
idealOutputDistribution(const Circuit &circuit, int shots,
                        uint64_t seed, BackendKind kind,
                        int dense_limit)
{
    const Circuit reduced = restrictToActiveQubits(circuit);
    if (kind == BackendKind::Auto) {
        kind = reduced.numQubits() <= dense_limit
                   ? BackendKind::Dense
                   : BackendKind::Stabilizer;
    }
    if (kind == BackendKind::Dense)
        return idealDistribution(reduced);
    require(reduced.isClifford(),
            "wide non-Clifford circuit: ideal output not computable "
            "(reduce seed count or program width)");
    Rng rng(seed);
    return cliffordSample(reduced, shots, rng);
}

} // namespace adapt
