#include "sim/stabilizer.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "circuit/clifford1q.hh"
#include "common/logging.hh"

namespace adapt
{

StabilizerState::StabilizerState(int num_qubits)
    : numQubits_(num_qubits), words_((num_qubits + 63) / 64)
{
    require(num_qubits > 0, "StabilizerState requires at least one qubit");
    const int rows = 2 * num_qubits + 1;
    x_.assign(static_cast<size_t>(rows) * words_, 0);
    z_.assign(static_cast<size_t>(rows) * words_, 0);
    r_.assign(static_cast<size_t>(rows), 0);
    // Destabilizer i = X_i, stabilizer n+i = Z_i.
    for (int i = 0; i < num_qubits; i++) {
        setX(i, i, true);
        setZ(numQubits_ + i, i, true);
    }
}

void
StabilizerState::reset()
{
    std::fill(x_.begin(), x_.end(), 0);
    std::fill(z_.begin(), z_.end(), 0);
    std::fill(r_.begin(), r_.end(), 0);
    for (int i = 0; i < numQubits_; i++) {
        setX(i, i, true);
        setZ(numQubits_ + i, i, true);
    }
}

bool
StabilizerState::operator==(const StabilizerState &other) const
{
    if (numQubits_ != other.numQubits_)
        return false;
    // Compare the 2n tableau rows only; the scratch row is working
    // storage whose content depends on past queries.
    const size_t tableau_words =
        static_cast<size_t>(2 * numQubits_) * words_;
    return std::equal(x_.begin(), x_.begin() + tableau_words,
                      other.x_.begin()) &&
           std::equal(z_.begin(), z_.begin() + tableau_words,
                      other.z_.begin()) &&
           std::equal(r_.begin(), r_.begin() + 2 * numQubits_,
                      other.r_.begin());
}

bool
StabilizerState::getX(int row, int col) const
{
    return (x_[static_cast<size_t>(row) * words_ + col / 64] >>
            (col % 64)) & 1;
}

bool
StabilizerState::getZ(int row, int col) const
{
    return (z_[static_cast<size_t>(row) * words_ + col / 64] >>
            (col % 64)) & 1;
}

void
StabilizerState::setX(int row, int col, bool v)
{
    uint64_t &word = x_[static_cast<size_t>(row) * words_ + col / 64];
    const uint64_t mask = uint64_t{1} << (col % 64);
    word = v ? (word | mask) : (word & ~mask);
}

void
StabilizerState::setZ(int row, int col, bool v)
{
    uint64_t &word = z_[static_cast<size_t>(row) * words_ + col / 64];
    const uint64_t mask = uint64_t{1} << (col % 64);
    word = v ? (word | mask) : (word & ~mask);
}

void
StabilizerState::applyH(QubitId q)
{
    const int rows = 2 * numQubits_ + 1;
    const int w = q / 64;
    const uint64_t mask = uint64_t{1} << (q % 64);
    for (int row = 0; row < rows; row++) {
        uint64_t &xw = x_[static_cast<size_t>(row) * words_ + w];
        uint64_t &zw = z_[static_cast<size_t>(row) * words_ + w];
        const bool xb = xw & mask;
        const bool zb = zw & mask;
        if (xb && zb)
            r_[static_cast<size_t>(row)] ^= 1;
        if (xb != zb) {
            xw ^= mask;
            zw ^= mask;
        }
    }
}

void
StabilizerState::applyS(QubitId q)
{
    const int rows = 2 * numQubits_ + 1;
    const int w = q / 64;
    const uint64_t mask = uint64_t{1} << (q % 64);
    for (int row = 0; row < rows; row++) {
        uint64_t &xw = x_[static_cast<size_t>(row) * words_ + w];
        uint64_t &zw = z_[static_cast<size_t>(row) * words_ + w];
        const bool xb = xw & mask;
        const bool zb = zw & mask;
        if (xb && zb)
            r_[static_cast<size_t>(row)] ^= 1;
        if (xb)
            zw ^= mask;
    }
}

void
StabilizerState::applySdg(QubitId q)
{
    applyS(q);
    applyZ(q);
}

void
StabilizerState::applyX(QubitId q)
{
    const int rows = 2 * numQubits_ + 1;
    for (int row = 0; row < rows; row++) {
        if (getZ(row, q))
            r_[static_cast<size_t>(row)] ^= 1;
    }
}

void
StabilizerState::applyZ(QubitId q)
{
    const int rows = 2 * numQubits_ + 1;
    for (int row = 0; row < rows; row++) {
        if (getX(row, q))
            r_[static_cast<size_t>(row)] ^= 1;
    }
}

void
StabilizerState::applyY(QubitId q)
{
    const int rows = 2 * numQubits_ + 1;
    for (int row = 0; row < rows; row++) {
        if (getX(row, q) != getZ(row, q))
            r_[static_cast<size_t>(row)] ^= 1;
    }
}

void
StabilizerState::applySX(QubitId q)
{
    // SX = Sdg . H . Sdg up to global phase (circuit order).
    applySdg(q);
    applyH(q);
    applySdg(q);
}

void
StabilizerState::applySXdg(QubitId q)
{
    // SXdg = S . H . S up to global phase (circuit order).
    applyS(q);
    applyH(q);
    applyS(q);
}

void
StabilizerState::applyCX(QubitId control, QubitId target)
{
    const int rows = 2 * numQubits_ + 1;
    const int wc = control / 64, wt = target / 64;
    const uint64_t mc = uint64_t{1} << (control % 64);
    const uint64_t mt = uint64_t{1} << (target % 64);
    for (int row = 0; row < rows; row++) {
        uint64_t &xc = x_[static_cast<size_t>(row) * words_ + wc];
        uint64_t &xt = x_[static_cast<size_t>(row) * words_ + wt];
        uint64_t &zc = z_[static_cast<size_t>(row) * words_ + wc];
        uint64_t &zt = z_[static_cast<size_t>(row) * words_ + wt];
        const bool xcb = xc & mc;
        const bool ztb = zt & mt;
        const bool xtb = xt & mt;
        const bool zcb = zc & mc;
        if (xcb && ztb && (xtb == zcb))
            r_[static_cast<size_t>(row)] ^= 1;
        if (xcb)
            xt ^= mt;
        if (ztb)
            zc ^= mc;
    }
}

void
StabilizerState::applyCZ(QubitId a, QubitId b)
{
    applyH(b);
    applyCX(a, b);
    applyH(b);
}

void
StabilizerState::applySwap(QubitId a, QubitId b)
{
    applyCX(a, b);
    applyCX(b, a);
    applyCX(a, b);
}

void
StabilizerState::applyGate(const Gate &gate)
{
    switch (gate.type) {
      case GateType::I:
      case GateType::Barrier:
      case GateType::Delay:
        return;
      case GateType::X: applyX(gate.qubit()); return;
      case GateType::Y: applyY(gate.qubit()); return;
      case GateType::Z: applyZ(gate.qubit()); return;
      case GateType::H: applyH(gate.qubit()); return;
      case GateType::S: applyS(gate.qubit()); return;
      case GateType::Sdg: applySdg(gate.qubit()); return;
      case GateType::SX: applySX(gate.qubit()); return;
      case GateType::SXdg: applySXdg(gate.qubit()); return;
      case GateType::CX:
        applyCX(gate.qubits[0], gate.qubits[1]);
        return;
      case GateType::CZ:
        applyCZ(gate.qubits[0], gate.qubits[1]);
        return;
      case GateType::SWAP:
        applySwap(gate.qubits[0], gate.qubits[1]);
        return;
      case GateType::RZ:
      case GateType::U1: {
        switch (cliffordQuarterTurns(gate.params[0])) {
          case 1: applyS(gate.qubit()); return;
          case 2: applyZ(gate.qubit()); return;
          case 3: applySdg(gate.qubit()); return;
          default: return;
        }
      }
      case GateType::RX: {
        switch (cliffordQuarterTurns(gate.params[0])) {
          case 1: applySX(gate.qubit()); return;
          case 2: applyX(gate.qubit()); return;
          case 3: applySXdg(gate.qubit()); return;
          default: return;
        }
      }
      case GateType::RY: {
        switch (cliffordQuarterTurns(gate.params[0])) {
          case 1: applyH(gate.qubit()); applyX(gate.qubit()); return;
          case 2: applyY(gate.qubit()); return;
          case 3: applyX(gate.qubit()); applyH(gate.qubit()); return;
          default: return;
        }
      }
      case GateType::Measure:
        panic("StabilizerState::applyGate cannot apply Measure");
      default: {
        // Generic Clifford single-qubit gate (U2 / U3 with quarter
        // angles): locate it in the group and replay its generator
        // sequence.
        if (!gate.isClifford())
            fatal("applyGate on non-Clifford gate " + gate.toString());
        const Matrix2 u = gateMatrix(gate);
        const Clifford1Q &element = nearestClifford(u);
        require(unitaryDistance(u, element.matrix) < 1e-6,
                "Clifford gate not found in group table");
        for (GateType g : element.gates)
            applyGate({g, {gate.qubit()}});
        return;
      }
    }
}

void
StabilizerState::rowCopy(int dst, int src)
{
    for (int w = 0; w < words_; w++) {
        x_[static_cast<size_t>(dst) * words_ + w] =
            x_[static_cast<size_t>(src) * words_ + w];
        z_[static_cast<size_t>(dst) * words_ + w] =
            z_[static_cast<size_t>(src) * words_ + w];
    }
    r_[static_cast<size_t>(dst)] = r_[static_cast<size_t>(src)];
}

void
StabilizerState::rowSetZ(int row, int col)
{
    for (int w = 0; w < words_; w++) {
        x_[static_cast<size_t>(row) * words_ + w] = 0;
        z_[static_cast<size_t>(row) * words_ + w] = 0;
    }
    r_[static_cast<size_t>(row)] = 0;
    setZ(row, col, true);
}

void
StabilizerState::rowMult(int dst, int src)
{
    // Phase bookkeeping: count the i-exponents of multiplying the two
    // Pauli strings, word-parallel (the g function of Aaronson &
    // Gottesman, Sec. III).
    int exponent = 2 * r_[static_cast<size_t>(dst)] +
                   2 * r_[static_cast<size_t>(src)];
    for (int w = 0; w < words_; w++) {
        const uint64_t x1 = x_[static_cast<size_t>(src) * words_ + w];
        const uint64_t z1 = z_[static_cast<size_t>(src) * words_ + w];
        const uint64_t x2 = x_[static_cast<size_t>(dst) * words_ + w];
        const uint64_t z2 = z_[static_cast<size_t>(dst) * words_ + w];

        const uint64_t src_y = x1 & z1;
        const uint64_t src_x = x1 & ~z1;
        const uint64_t src_z = ~x1 & z1;

        const uint64_t plus = (src_y & z2 & ~x2) | (src_x & z2 & x2) |
                              (src_z & x2 & ~z2);
        const uint64_t minus = (src_y & x2 & ~z2) | (src_x & z2 & ~x2) |
                               (src_z & x2 & z2);
        exponent += std::popcount(plus);
        exponent -= std::popcount(minus);
    }
    exponent %= 4;
    if (exponent < 0)
        exponent += 4;
    // For stabilizer rows the exponent is always 0 or 2.  Odd values
    // occur only when dst is a destabilizer row (which may
    // anticommute with src); destabilizer signs are never read, so
    // any consistent choice works — we use the high bit, matching
    // the original CHP implementation's behaviour.
    r_[static_cast<size_t>(dst)] = (exponent & 2) ? 1 : 0;

    for (int w = 0; w < words_; w++) {
        x_[static_cast<size_t>(dst) * words_ + w] ^=
            x_[static_cast<size_t>(src) * words_ + w];
        z_[static_cast<size_t>(dst) * words_ + w] ^=
            z_[static_cast<size_t>(src) * words_ + w];
    }
}

bool
StabilizerState::isDeterministic(QubitId q) const
{
    for (int p = numQubits_; p < 2 * numQubits_; p++) {
        if (getX(p, q))
            return false;
    }
    return true;
}

int
StabilizerState::measurePivot(QubitId q) const
{
    for (int p = numQubits_; p < 2 * numQubits_; p++) {
        if (getX(p, q))
            return p;
    }
    return -1;
}

void
StabilizerState::collapse(QubitId q, int pivot, bool outcome)
{
    for (int i = 0; i < 2 * numQubits_; i++) {
        if (i != pivot && getX(i, q))
            rowMult(i, pivot);
    }
    rowCopy(pivot - numQubits_, pivot);
    rowSetZ(pivot, q);
    r_[static_cast<size_t>(pivot)] = outcome ? 1 : 0;
}

bool
StabilizerState::deterministicOutcome(QubitId q)
{
    // Accumulate the product of stabilizers whose destabilizer
    // partner anticommutes with Z_q into the scratch row; its sign is
    // the outcome.
    const int scratch = 2 * numQubits_;
    for (int w = 0; w < words_; w++) {
        x_[static_cast<size_t>(scratch) * words_ + w] = 0;
        z_[static_cast<size_t>(scratch) * words_ + w] = 0;
    }
    r_[static_cast<size_t>(scratch)] = 0;
    for (int i = 0; i < numQubits_; i++) {
        if (getX(i, q))
            rowMult(scratch, i + numQubits_);
    }
    return r_[static_cast<size_t>(scratch)] != 0;
}

bool
StabilizerState::measure(QubitId q, Rng &rng)
{
    const int pivot = measurePivot(q);
    if (pivot >= 0) {
        const bool outcome = rng.bernoulli(0.5);
        collapse(q, pivot, outcome);
        return outcome;
    }
    return deterministicOutcome(q);
}

void
StabilizerState::postselect(QubitId q, bool outcome)
{
    const int pivot = measurePivot(q);
    if (pivot >= 0) {
        collapse(q, pivot, outcome);
        return;
    }
    if (deterministicOutcome(q) != outcome) {
        fatal("postselect on a zero-probability outcome of q" +
              std::to_string(q));
    }
}

void
StabilizerState::applyDecayJump(QubitId q)
{
    const int pivot = measurePivot(q);
    if (pivot >= 0) {
        // Random-outcome qubit: collapse onto the |1> branch, then
        // flip it down to |0>.  One pivot scan serves both steps
        // (postselect would re-run it inside its own dispatch).
        collapse(q, pivot, true);
        applyX(q);
        return;
    }
    // Deterministic qubit: the jump fires only when the population
    // is 1 — every caller draws the jump conditioned on
    // populationOne(q) > 0, which for a deterministic qubit means
    // the outcome *is* 1 — so the "collapse" is the identity and the
    // jump reduces to the X flip.  No outcome re-derivation: that
    // scratch-row accumulation is the dominant per-jump cost the
    // direct update removes (postselect(q, true) would repeat it
    // just to assert what the caller's population test already
    // established; BM_DecayJump* in bench_backend_scaling records
    // the delta).
    applyX(q);
}

bool
StabilizerState::measureFlipSupport(QubitId q,
                                    std::vector<QubitId> &x_support,
                                    std::vector<QubitId> &z_support) const
{
    const int pivot = measurePivot(q);
    if (pivot < 0)
        return false;
    x_support.clear();
    z_support.clear();
    for (int col = 0; col < numQubits_; col++) {
        if (getX(pivot, col))
            x_support.push_back(col);
        if (getZ(pivot, col))
            z_support.push_back(col);
    }
    return true;
}

double
StabilizerState::populationOne(QubitId q)
{
    if (measurePivot(q) >= 0)
        return 0.5;
    return deterministicOutcome(q) ? 1.0 : 0.0;
}

Distribution
cliffordSample(const Circuit &circuit, int shots, Rng &rng)
{
    require(shots > 0, "cliffordSample requires at least one shot");
    require(circuit.isClifford(),
            "cliffordSample requires a Clifford circuit");

    // Apply the unitary prefix once; replay only the measurement
    // suffix per shot.
    StabilizerState prefix(circuit.numQubits());
    std::vector<const Gate *> suffix;
    bool measuring = false;
    int max_clbit = 0;
    for (const Gate &gate : circuit.gates()) {
        if (gate.type == GateType::Measure) {
            measuring = true;
            suffix.push_back(&gate);
            max_clbit = std::max(
                max_clbit, gate.clbit < 0
                               ? static_cast<int>(gate.qubit())
                               : gate.clbit);
            continue;
        }
        if (!isUnitaryGate(gate.type))
            continue;
        if (measuring)
            suffix.push_back(&gate);
        else
            prefix.applyGate(gate);
    }
    require(!suffix.empty(),
            "cliffordSample requires at least one Measure gate");

    Distribution dist;
    // Measured clbits beyond bit 63 switch the keys to fingerprints
    // (OutcomePacker) so wide Table 2-style decoys still produce
    // faithful supports / entropies / TVDs.
    OutcomePacker packer(max_clbit + 1);
    for (int shot = 0; shot < shots; shot++) {
        StabilizerState state = prefix;
        packer.clear();
        for (const Gate *gate : suffix) {
            if (gate->type == GateType::Measure) {
                const int clbit = gate->clbit < 0
                                      ? static_cast<int>(gate->qubit())
                                      : gate->clbit;
                packer.set(clbit, state.measure(gate->qubit(), rng));
            } else {
                state.applyGate(*gate);
            }
        }
        dist.addSample(packer.key());
    }
    return dist;
}

} // namespace adapt
