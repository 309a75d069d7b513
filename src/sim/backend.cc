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

namespace
{

/** (measured qubit, classical bit) pairs of a circuit's Measure
 *  gates, validating that measurements are terminal per qubit. */
std::vector<std::pair<QubitId, int>>
terminalMeasures(const Circuit &circuit)
{
    std::vector<bool> measured(
        static_cast<size_t>(circuit.numQubits()), false);
    std::vector<std::pair<QubitId, int>> measures;
    for (const Gate &gate : circuit.gates()) {
        if (gate.type == GateType::Measure) {
            const int clbit = gate.clbit < 0
                                  ? static_cast<int>(gate.qubit())
                                  : gate.clbit;
            measured[static_cast<size_t>(gate.qubit())] = true;
            measures.emplace_back(gate.qubit(), clbit);
            continue;
        }
        if (!isUnitaryGate(gate.type))
            continue;
        for (QubitId q : gate.qubits) {
            if (measured[static_cast<size_t>(q)]) {
                fatal("dense backend sample requires terminal "
                      "measurements (gate after Measure on q" +
                      std::to_string(q) + ")");
            }
        }
    }
    require(!measures.empty(),
            "sample requires at least one Measure gate");
    return measures;
}

} // namespace

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

Distribution
DenseBackend::sample(const Circuit &circuit, int shots, Rng &rng)
{
    require(shots > 0, "sample requires at least one shot");
    require(circuit.numQubits() == numQubits(),
            "sample: circuit width does not match the backend");
    const auto measures = terminalMeasures(circuit);

    init();
    std::vector<Gate> unitaries;
    unitaries.reserve(circuit.gates().size());
    for (const Gate &gate : circuit.gates()) {
        if (!isUnitaryGate(gate.type))
            continue;
        unitaries.push_back(gate);
        for (QubitId &q : unitaries.back().qubits)
            q = bit(q);
    }
    state_.applyFused(unitaries);

    // Repeated non-collapsing draws reuse the state's cumulative
    // weight cache: O(2^n) once, then O(n) per shot.
    Distribution dist;
    int max_clbit = 0;
    for (const auto &[q, c] : measures)
        max_clbit = std::max(max_clbit, c);
    OutcomePacker packer(max_clbit + 1);
    for (int shot = 0; shot < shots; shot++) {
        const uint64_t basis = state_.sample(rng);
        packer.clear();
        for (const auto &[q, c] : measures)
            packer.set(c, (basis & (uint64_t{1} << bit(q))) != 0);
        dist.addSample(packer.key());
    }
    return dist;
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

Distribution
PauliFrameBackend::sample(const Circuit &circuit, int shots, Rng &rng)
{
    require(circuit.numQubits() == numQubits(),
            "sample: circuit width does not match the backend");
    return cliffordSample(circuit, shots, rng);
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
