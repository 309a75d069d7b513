#include "circuit/gate.hh"

#include <cmath>
#include <sstream>

#include "common/logging.hh"

namespace adapt
{

int
gateArity(GateType type)
{
    switch (type) {
      case GateType::CX:
      case GateType::CZ:
      case GateType::SWAP:
        return 2;
      case GateType::Barrier:
        return -1; // variadic
      default:
        return 1;
    }
}

int
gateParamCount(GateType type)
{
    switch (type) {
      case GateType::RX:
      case GateType::RY:
      case GateType::RZ:
      case GateType::U1:
      case GateType::Delay:
        return 1;
      case GateType::U2:
        return 2;
      case GateType::U3:
        return 3;
      default:
        return 0;
    }
}

std::string
gateName(GateType type)
{
    switch (type) {
      case GateType::I: return "id";
      case GateType::X: return "x";
      case GateType::Y: return "y";
      case GateType::Z: return "z";
      case GateType::H: return "h";
      case GateType::S: return "s";
      case GateType::Sdg: return "sdg";
      case GateType::T: return "t";
      case GateType::Tdg: return "tdg";
      case GateType::SX: return "sx";
      case GateType::SXdg: return "sxdg";
      case GateType::RX: return "rx";
      case GateType::RY: return "ry";
      case GateType::RZ: return "rz";
      case GateType::U1: return "u1";
      case GateType::U2: return "u2";
      case GateType::U3: return "u3";
      case GateType::CX: return "cx";
      case GateType::CZ: return "cz";
      case GateType::SWAP: return "swap";
      case GateType::Measure: return "measure";
      case GateType::Reset: return "reset";
      case GateType::Barrier: return "barrier";
      case GateType::Delay: return "delay";
    }
    panic("unreachable gate type");
}

bool
isUnitaryGate(GateType type)
{
    switch (type) {
      case GateType::Measure:
      case GateType::Reset:
      case GateType::Barrier:
      case GateType::Delay:
        return false;
      default:
        return true;
    }
}

bool
isTwoQubitGate(GateType type)
{
    return gateArity(type) == 2;
}

bool
isCliffordType(GateType type)
{
    switch (type) {
      case GateType::I:
      case GateType::X:
      case GateType::Y:
      case GateType::Z:
      case GateType::H:
      case GateType::S:
      case GateType::Sdg:
      case GateType::SX:
      case GateType::SXdg:
      case GateType::CX:
      case GateType::CZ:
      case GateType::SWAP:
        return true;
      default:
        return false;
    }
}

Gate::Gate(GateType t, std::vector<QubitId> qs, std::vector<double> ps)
    : type(t), qubits(std::move(qs)), params(std::move(ps))
{
    const int arity = gateArity(type);
    if (arity >= 0 && static_cast<int>(qubits.size()) != arity) {
        fatal("gate " + gateName(type) + " expects " +
              std::to_string(arity) + " qubit operand(s)");
    }
    if (static_cast<int>(params.size()) != gateParamCount(type)) {
        fatal("gate " + gateName(type) + " expects " +
              std::to_string(gateParamCount(type)) + " parameter(s)");
    }
}

TimeNs
Gate::delayDuration() const
{
    require(type == GateType::Delay, "delayDuration on non-delay gate");
    return params.at(0);
}

bool
isCliffordAngle(double angle)
{
    if (!std::isfinite(angle))
        return false;
    const double quarter = angle / (kPi / 2.0);
    return std::abs(quarter - std::round(quarter)) < 1e-9;
}

int
cliffordQuarterTurns(double angle)
{
    require(std::isfinite(angle),
            "rotation angle is not finite");
    if (!isCliffordAngle(angle)) {
        fatal("rotation angle " + std::to_string(angle) +
              " is not Clifford (not a multiple of pi/2)");
    }
    const double rounded = std::round(angle / (kPi / 2.0));
    int k = static_cast<int>(std::fmod(rounded, 4.0));
    if (k < 0)
        k += 4;
    return k;
}

bool
Gate::isClifford() const
{
    if (isCliffordType(type))
        return true;
    switch (type) {
      case GateType::RX:
      case GateType::RY:
      case GateType::RZ:
      case GateType::U1:
        return isCliffordAngle(params.at(0));
      case GateType::U2:
        // U2(phi, lambda) = RZ(phi) SX-like; Clifford iff both Euler
        // angles are quarter turns.
        return isCliffordAngle(params.at(0)) &&
               isCliffordAngle(params.at(1));
      case GateType::U3:
        return isCliffordAngle(params.at(0)) &&
               isCliffordAngle(params.at(1)) &&
               isCliffordAngle(params.at(2));
      default:
        return false;
    }
}

std::string
Gate::toString() const
{
    std::ostringstream oss;
    oss << gateName(type);
    if (!params.empty()) {
        oss << "(";
        for (size_t i = 0; i < params.size(); i++) {
            if (i)
                oss << ", ";
            oss << params[i];
        }
        oss << ")";
    }
    for (size_t i = 0; i < qubits.size(); i++)
        oss << (i ? ", q" : " q") << qubits[i];
    if (condBit >= 0)
        oss << " if c" << condBit;
    return oss.str();
}

bool
Gate::operator==(const Gate &other) const
{
    if (type != other.type || qubits != other.qubits ||
        clbit != other.clbit || condBit != other.condBit ||
        params.size() != other.params.size()) {
        return false;
    }
    for (size_t i = 0; i < params.size(); i++) {
        if (std::abs(params[i] - other.params[i]) > 1e-12)
            return false;
    }
    return true;
}

Matrix2
gateMatrix(GateType type, const std::vector<double> &params)
{
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    switch (type) {
      case GateType::I:
        return Matrix2::identity();
      case GateType::X:
        return {0, 1, 1, 0};
      case GateType::Y:
        return {0, -kImag, kImag, 0};
      case GateType::Z:
        return {1, 0, 0, -1};
      case GateType::H:
        return Matrix2(1, 1, 1, -1) * inv_sqrt2;
      case GateType::S:
        return {1, 0, 0, kImag};
      case GateType::Sdg:
        return {1, 0, 0, -kImag};
      case GateType::T:
        return {1, 0, 0, std::exp(kImag * (kPi / 4.0))};
      case GateType::Tdg:
        return {1, 0, 0, std::exp(-kImag * (kPi / 4.0))};
      case GateType::SX:
        return Matrix2(1.0 + kImag, 1.0 - kImag,
                       1.0 - kImag, 1.0 + kImag) * 0.5;
      case GateType::SXdg:
        return Matrix2(1.0 - kImag, 1.0 + kImag,
                       1.0 + kImag, 1.0 - kImag) * 0.5;
      case GateType::RX: {
        const double half = params.at(0) / 2.0;
        return {std::cos(half), -kImag * std::sin(half),
                -kImag * std::sin(half), std::cos(half)};
      }
      case GateType::RY: {
        const double half = params.at(0) / 2.0;
        return {std::cos(half), -std::sin(half),
                std::sin(half), std::cos(half)};
      }
      case GateType::RZ: {
        const double half = params.at(0) / 2.0;
        return {std::exp(-kImag * half), 0, 0, std::exp(kImag * half)};
      }
      case GateType::U1:
        return {1, 0, 0, std::exp(kImag * params.at(0))};
      case GateType::U2: {
        const double phi = params.at(0);
        const double lam = params.at(1);
        return Matrix2(1.0, -std::exp(kImag * lam),
                       std::exp(kImag * phi),
                       std::exp(kImag * (phi + lam))) * inv_sqrt2;
      }
      case GateType::U3: {
        const double theta = params.at(0);
        const double phi = params.at(1);
        const double lam = params.at(2);
        const double c = std::cos(theta / 2.0);
        const double s = std::sin(theta / 2.0);
        return {c, -std::exp(kImag * lam) * s,
                std::exp(kImag * phi) * s,
                std::exp(kImag * (phi + lam)) * c};
      }
      default:
        panic("gateMatrix: " + gateName(type) +
              " has no single-qubit matrix");
    }
}

Matrix2
gateMatrix(const Gate &gate)
{
    return gateMatrix(gate.type, gate.params);
}

} // namespace adapt
