#include "circuit/circuit.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace adapt
{

Circuit::Circuit(int num_qubits, int num_clbits)
    : numQubits_(num_qubits),
      numClbits_(num_clbits < 0 ? num_qubits : num_clbits)
{
    require(num_qubits > 0, "Circuit requires at least one qubit");
}

void
Circuit::measure(QubitId q, int clbit)
{
    Gate gate(GateType::Measure, {q});
    gate.clbit = clbit < 0 ? static_cast<int>(q) : clbit;
    require(gate.clbit < numClbits_,
            "measure destination classical bit out of range");
    add(std::move(gate));
}

void
Circuit::reset(QubitId q)
{
    add(Gate(GateType::Reset, {q}));
}

void
Circuit::addIf(Gate gate, int cond_bit)
{
    require(cond_bit >= 0 && cond_bit < numClbits_,
            "conditional gate classical bit out of range");
    require(isUnitaryGate(gate.type) && gateArity(gate.type) == 1,
            "only single-qubit unitaries may be classically "
            "controlled");
    gate.condBit = cond_bit;
    add(std::move(gate));
}

void
Circuit::add(Gate gate)
{
    for (QubitId q : gate.qubits) {
        if (q < 0 || q >= numQubits_) {
            fatal("gate " + gate.toString() + " references qubit out of "
                  "range for a " + std::to_string(numQubits_) +
                  "-qubit circuit");
        }
    }
    if (isTwoQubitGate(gate.type)) {
        require(gate.qubits[0] != gate.qubits[1],
                "two-qubit gate operands must be distinct");
    }
    gates_.push_back(std::move(gate));
}

void
Circuit::cx(QubitId control, QubitId target)
{
    add({GateType::CX, {control, target}});
}

void
Circuit::cz(QubitId a, QubitId b)
{
    add({GateType::CZ, {a, b}});
}

void
Circuit::swap(QubitId a, QubitId b)
{
    add({GateType::SWAP, {a, b}});
}

void
Circuit::measureAll()
{
    for (QubitId q = 0; q < numQubits_; q++)
        measure(q);
}

void
Circuit::barrier()
{
    std::vector<QubitId> all(static_cast<size_t>(numQubits_));
    for (int q = 0; q < numQubits_; q++)
        all[static_cast<size_t>(q)] = q;
    add({GateType::Barrier, std::move(all)});
}

void
Circuit::delay(TimeNs duration_ns, QubitId q)
{
    require(duration_ns >= 0.0, "delay duration must be non-negative");
    add({GateType::Delay, {q}, {duration_ns}});
}

int
Circuit::countOf(GateType type) const
{
    return static_cast<int>(
        std::count_if(gates_.begin(), gates_.end(),
                      [&](const Gate &g) { return g.type == type; }));
}

int
Circuit::gateCount() const
{
    return static_cast<int>(
        std::count_if(gates_.begin(), gates_.end(), [](const Gate &g) {
            return isUnitaryGate(g.type);
        }));
}

int
Circuit::twoQubitGateCount() const
{
    return static_cast<int>(
        std::count_if(gates_.begin(), gates_.end(), [](const Gate &g) {
            return isTwoQubitGate(g.type);
        }));
}

int
Circuit::depth() const
{
    std::vector<int> level(static_cast<size_t>(numQubits_), 0);
    for (const Gate &gate : gates_) {
        if (gate.type == GateType::Barrier) {
            const int sync =
                *std::max_element(level.begin(), level.end());
            std::fill(level.begin(), level.end(), sync);
            continue;
        }
        if (gate.type == GateType::Delay)
            continue;
        int start = 0;
        for (QubitId q : gate.qubits)
            start = std::max(start, level[static_cast<size_t>(q)]);
        for (QubitId q : gate.qubits)
            level[static_cast<size_t>(q)] = start + 1;
    }
    return *std::max_element(level.begin(), level.end());
}

bool
Circuit::isClifford() const
{
    return std::all_of(gates_.begin(), gates_.end(), [](const Gate &g) {
        return !isUnitaryGate(g.type) || g.isClifford();
    });
}

void
Circuit::append(const Circuit &other)
{
    require(other.numQubits_ <= numQubits_,
            "cannot append a wider circuit");
    for (const Gate &gate : other.gates_)
        add(gate);
}

std::string
Circuit::toString() const
{
    std::ostringstream oss;
    oss << "circuit(" << numQubits_ << " qubits, " << gates_.size()
        << " ops)\n";
    for (const Gate &gate : gates_)
        oss << "  " << gate.toString() << "\n";
    return oss.str();
}

} // namespace adapt
