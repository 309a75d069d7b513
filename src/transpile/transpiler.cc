#include "transpile/transpiler.hh"

#include "common/logging.hh"
#include "transpile/decompose.hh"

namespace adapt
{

CompiledProgram
transpile(const Circuit &logical, const Device &device,
          const Calibration &cal, const TranspileOptions &options)
{
    const Topology &topology = device.topology();
    if (logical.numQubits() > topology.numQubits()) {
        fatal("program needs " + std::to_string(logical.numQubits()) +
              " qubits but " + device.name() + " has " +
              std::to_string(topology.numQubits()));
    }

    // 1. Lower to the physical basis so routing sees the real CX
    //    structure.
    const Circuit lowered = decompose(logical);

    // 2. Initial placement.
    const Layout initial =
        options.noiseAdaptive
            ? noiseAdaptiveLayout(lowered, topology, cal)
            : trivialLayout(lowered.numQubits(), topology);

    // 3. SWAP routing.
    RoutingResult routed = route(lowered, topology, initial);

    // 4. Lower the inserted SWAPs (3x CX each).
    Circuit physical = decompose(routed.physical);

    // 5. Timing -> Gate Sequence Table.
    ScheduledCircuit sched =
        schedule(physical, topology, cal, options.scheduleMode);

    CompiledProgram program(std::move(physical), std::move(sched));
    program.initialLayout = initial;
    program.finalLayout = routed.finalLayout;
    program.swapCount = routed.swapCount;
    program.logicalQubits = logical.numQubits();
    return program;
}

ScheduledCircuit
reschedule(const Circuit &physical, const Device &device,
           const Calibration &cal, ScheduleMode mode)
{
    return schedule(physical, device.topology(), cal, mode);
}

} // namespace adapt
