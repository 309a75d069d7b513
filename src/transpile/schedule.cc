#include "transpile/schedule.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>

#include "common/logging.hh"

namespace adapt
{

ScheduledCircuit::ScheduledCircuit(int num_qubits, int num_clbits)
    : numQubits_(num_qubits), numClbits_(num_clbits)
{
    perQubit_.assign(static_cast<size_t>(num_qubits), {});
}

const std::vector<int> &
ScheduledCircuit::qubitOps(QubitId q) const
{
    return perQubit_.at(static_cast<size_t>(q));
}

void
ScheduledCircuit::addOp(TimedOp op)
{
    require(op.end >= op.start, "timed op with negative duration");
    ops_.push_back(std::move(op));
}

void
ScheduledCircuit::finalize()
{
    std::stable_sort(ops_.begin(), ops_.end(),
                     [](const TimedOp &a, const TimedOp &b) {
                         return a.start < b.start;
                     });
    for (auto &list : perQubit_)
        list.clear();
    makespan_ = 0.0;
    for (size_t i = 0; i < ops_.size(); i++) {
        makespan_ = std::max(makespan_, ops_[i].end);
        for (QubitId q : ops_[i].gate.qubits) {
            perQubit_.at(static_cast<size_t>(q))
                .push_back(static_cast<int>(i));
        }
    }
}

std::vector<IdleWindow>
ScheduledCircuit::idleWindows(QubitId q, TimeNs min_duration_ns) const
{
    // Delay ops deliberately do *not* occupy the qubit: an explicit
    // Delay is exactly an idle period (that is how the
    // characterization circuits of Fig. 4 create their idle windows).
    std::vector<IdleWindow> windows;
    TimeNs cursor = -1.0;
    bool seen_real_op = false;
    for (int idx : qubitOps(q)) {
        const TimedOp &op = ops_[static_cast<size_t>(idx)];
        if (op.gate.type == GateType::Delay)
            continue;
        if (seen_real_op && op.start - cursor > 1e-9) {
            if (op.start - cursor >= min_duration_ns)
                windows.push_back({q, cursor, op.start});
        }
        cursor = std::max(cursor, op.end);
        seen_real_op = true;
    }
    return windows;
}

double
ScheduledCircuit::idleFraction(QubitId q) const
{
    if (makespan_ <= 0.0)
        return 0.0;
    TimeNs busy = 0.0;
    for (int idx : qubitOps(q)) {
        const TimedOp &op = ops_[static_cast<size_t>(idx)];
        if (op.gate.type != GateType::Delay)
            busy += op.duration();
    }
    return std::max(0.0, 1.0 - busy / makespan_);
}

TimeNs
ScheduledCircuit::totalIdleTime(QubitId q) const
{
    TimeNs total = 0.0;
    for (const IdleWindow &w : idleWindows(q))
        total += w.duration();
    return total;
}

std::vector<QubitId>
ScheduledCircuit::activeQubits() const
{
    std::vector<QubitId> active;
    for (QubitId q = 0; q < numQubits_; q++) {
        if (!qubitOps(q).empty())
            active.push_back(q);
    }
    return active;
}

TimeNs
ScheduledCircuit::meanIdleTime() const
{
    const auto active = activeQubits();
    if (active.empty())
        return 0.0;
    TimeNs sum = 0.0;
    for (QubitId q : active)
        sum += totalIdleTime(q);
    return sum / static_cast<double>(active.size());
}

std::vector<std::pair<TimeNs, TimeNs>>
ScheduledCircuit::linkActivity(int link) const
{
    std::vector<std::pair<TimeNs, TimeNs>> intervals;
    for (const TimedOp &op : ops_) {
        if (op.gate.type == GateType::CX && op.linkIndex == link)
            intervals.emplace_back(op.start, op.end);
    }
    std::sort(intervals.begin(), intervals.end());
    return intervals;
}

std::string
ScheduledCircuit::toTable() const
{
    // Layers keyed by distinct op start times, as in Fig. 11.
    std::map<double, std::vector<int>> layers;
    for (size_t i = 0; i < ops_.size(); i++)
        layers[ops_[i].start].push_back(static_cast<int>(i));

    std::ostringstream oss;
    oss << "Layer  Time(ns)";
    for (QubitId q = 0; q < numQubits_; q++) {
        if (!qubitOps(q).empty())
            oss << "  Q" << q;
    }
    oss << "\n";
    int layer = 1;
    for (const auto &[time, op_indices] : layers) {
        oss << std::setw(5) << layer++ << "  " << std::setw(8)
            << std::fixed << std::setprecision(0) << time;
        for (QubitId q = 0; q < numQubits_; q++) {
            if (qubitOps(q).empty())
                continue;
            std::string cell = "-";
            for (int idx : op_indices) {
                const TimedOp &op = ops_[static_cast<size_t>(idx)];
                for (QubitId oq : op.gate.qubits) {
                    if (oq == q)
                        cell = gateName(op.gate.type);
                }
            }
            oss << "  " << cell;
        }
        oss << "\n";
    }
    return oss.str();
}

TimeNs
gateDuration(const Gate &gate, const Calibration &cal, int link_index)
{
    switch (gate.type) {
      case GateType::RZ:
      case GateType::I:
      case GateType::Barrier:
        return 0.0;
      case GateType::X:
      case GateType::Y:
      case GateType::SX:
      case GateType::SXdg:
        // One physical pulse plus the free-evolution buffer the paper
        // uses after each pulse (Sec. 4.4.3).
        return cal.qubits.at(static_cast<size_t>(gate.qubit()))
                   .pulseLatencyNs +
               cal.pulseBufferNs;
      case GateType::CX:
        require(link_index >= 0, "CX gate without a physical link");
        return cal.links.at(static_cast<size_t>(link_index)).cxLatencyNs;
      case GateType::Measure:
        return cal.measureLatencyNs;
      case GateType::Reset:
        // Active reset is a measurement plus a conditional feedback
        // pulse folded into the readout window.
        return cal.measureLatencyNs;
      case GateType::Delay:
        return gate.delayDuration();
      default:
        fatal("gate " + gateName(gate.type) +
              " is not schedulable; run decompose() first");
    }
}

ScheduledCircuit
schedule(const Circuit &physical, const Topology &topology,
         const Calibration &cal, ScheduleMode mode)
{
    require(physical.numQubits() <= topology.numQubits(),
            "circuit wider than the topology");

    struct PendingOp
    {
        const Gate *gate;
        TimeNs duration;
        int linkIndex;
        TimeNs start = 0.0;
    };

    std::vector<PendingOp> pending;
    pending.reserve(physical.size());
    for (const Gate &gate : physical.gates()) {
        int link = -1;
        if (gate.type == GateType::CX) {
            link = topology.linkIndex(gate.qubits[0], gate.qubits[1]);
            if (link < 0) {
                fatal("unrouted CX between " +
                      std::to_string(gate.qubits[0]) + " and " +
                      std::to_string(gate.qubits[1]));
            }
        }
        pending.push_back({&gate, gateDuration(gate, cal, link), link});
    }

    const auto nq = static_cast<size_t>(physical.numQubits());
    const auto ncl = static_cast<size_t>(
        std::max(physical.numClbits(), 0));

    // Classical bit touched by an op: Measure writes gate.clbit,
    // a conditional gate reads gate.condBit.  Treating the bit as a
    // scheduling resource serializes writer -> reader -> re-writer in
    // program order, so clbit reuse and feedback stay causal in both
    // scheduling modes.
    auto clbitOf = [](const Gate &g) {
        if (g.type == GateType::Measure)
            return g.clbit;
        return g.condBit;
    };

    // Forward ASAP pass (also determines the makespan for ALAP).
    std::vector<TimeNs> avail(nq, 0.0);
    std::vector<TimeNs> cl_avail(ncl, 0.0);
    TimeNs makespan = 0.0;
    for (PendingOp &op : pending) {
        if (op.gate->type == GateType::Barrier) {
            const TimeNs sync =
                *std::max_element(avail.begin(), avail.end());
            std::fill(avail.begin(), avail.end(), sync);
            continue;
        }
        TimeNs start = 0.0;
        for (QubitId q : op.gate->qubits)
            start = std::max(start, avail[static_cast<size_t>(q)]);
        const int cb = clbitOf(*op.gate);
        if (cb >= 0)
            start = std::max(start, cl_avail.at(static_cast<size_t>(cb)));
        op.start = start;
        for (QubitId q : op.gate->qubits)
            avail[static_cast<size_t>(q)] = start + op.duration;
        if (cb >= 0)
            cl_avail[static_cast<size_t>(cb)] = start + op.duration;
        makespan = std::max(makespan, start + op.duration);
    }

    if (mode == ScheduleMode::Alap) {
        // Backward pass: everything as late as the dependencies and
        // the ASAP makespan allow.
        std::vector<TimeNs> late(nq, makespan);
        std::vector<TimeNs> cl_late(ncl, makespan);
        for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
            PendingOp &op = *it;
            if (op.gate->type == GateType::Barrier) {
                const TimeNs sync =
                    *std::min_element(late.begin(), late.end());
                std::fill(late.begin(), late.end(), sync);
                continue;
            }
            TimeNs end = makespan;
            for (QubitId q : op.gate->qubits)
                end = std::min(end, late[static_cast<size_t>(q)]);
            const int cb = clbitOf(*op.gate);
            if (cb >= 0)
                end = std::min(end, cl_late[static_cast<size_t>(cb)]);
            op.start = end - op.duration;
            for (QubitId q : op.gate->qubits)
                late[static_cast<size_t>(q)] = op.start;
            if (cb >= 0)
                cl_late[static_cast<size_t>(cb)] = op.start;
        }
    }

    ScheduledCircuit out(physical.numQubits(), physical.numClbits());
    for (const PendingOp &op : pending) {
        if (op.gate->type == GateType::Barrier)
            continue;
        TimedOp timed;
        timed.gate = *op.gate;
        timed.start = op.start;
        timed.end = op.start + op.duration;
        timed.linkIndex = op.linkIndex;
        out.addOp(std::move(timed));
    }
    out.finalize();
    return out;
}

} // namespace adapt
