#include "experiments/harness.hh"

#include <iomanip>
#include <ostream>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "sim/statevector.hh"

namespace adapt
{

SuiteRow
evaluateWorkload(const Workload &workload, const Device &device,
                 DDProtocol protocol, const SuiteOptions &options)
{
    const Calibration cal = device.calibration(options.cycle);
    const CompiledProgram program =
        transpile(workload.circuit, device, cal);
    const NoisyMachine machine(device, options.cycle);
    const Distribution ideal = idealDistribution(program.physical);

    PolicyOptions popts = options.policy;
    popts.adapt.dd.protocol = protocol;

    SuiteRow row;
    row.workload = workload.name;
    row.machine = device.name();
    row.protocol = protocol;
    for (Policy policy : options.policies) {
        const PolicyOutcome outcome =
            evaluatePolicy(policy, program, machine, ideal, popts);
        row.fidelity[policy] = outcome.fidelity;
        if (policy == Policy::NoDD)
            row.baselineFidelity = outcome.fidelity;
    }
    require(row.fidelity.count(Policy::NoDD) > 0,
            "suite evaluation requires the No-DD baseline policy");
    return row;
}

std::vector<SuiteRow>
evaluateSuite(const std::vector<Workload> &suite, const Device &device,
              DDProtocol protocol, const SuiteOptions &options)
{
    // Workloads are independent (each compiles and runs its own
    // circuit), so the suite fans out across the pool; rows land at
    // their workload's index, keeping the output order and content
    // identical to a serial evaluation.  The layers below fan out on
    // the same pool: the per-policy candidate batches (adaptSearch
    // neighbourhoods, Runtime-Best sweeps via NoisyMachine::runBatch)
    // and the shot chunks inside each run.  Threads whose workloads
    // finish early pick those up, so a long workload (QAOA-10A) does
    // not leave the rest of the pool idle.
    std::vector<SuiteRow> rows(suite.size());
    parallelFor(0, static_cast<int64_t>(suite.size()), options.threads,
                [&](int64_t lo, int64_t hi, int) {
        for (int64_t i = lo; i < hi; i++) {
            rows[static_cast<size_t>(i)] = evaluateWorkload(
                suite[static_cast<size_t>(i)], device, protocol,
                options);
        }
    });
    return rows;
}

void
printSuiteTable(std::ostream &os, const std::vector<SuiteRow> &rows)
{
    if (rows.empty())
        return;
    os << std::left << std::setw(10) << "workload" << std::right
       << std::setw(9) << "no-dd";
    for (Policy policy : {Policy::AllDD, Policy::Adapt,
                          Policy::RuntimeBest}) {
        if (rows.front().fidelity.count(policy))
            os << std::setw(14) << (policyName(policy) + "(rel)");
    }
    os << "\n";
    for (const SuiteRow &row : rows) {
        os << std::left << std::setw(10) << row.workload << std::right
           << std::setw(9) << std::fixed << std::setprecision(3)
           << row.baselineFidelity;
        for (Policy policy : {Policy::AllDD, Policy::Adapt,
                              Policy::RuntimeBest}) {
            if (row.fidelity.count(policy)) {
                os << std::setw(14) << std::fixed
                   << std::setprecision(2) << row.relative(policy);
            }
        }
        os << "\n";
    }
}

Summary
summarize(const std::vector<SuiteRow> &rows, Policy policy)
{
    std::vector<double> rel;
    rel.reserve(rows.size());
    for (const SuiteRow &row : rows) {
        if (row.fidelity.count(policy))
            rel.push_back(std::max(row.relative(policy), 1e-6));
    }
    require(!rel.empty(), "no rows contain the requested policy");
    return {minOf(rel), geometricMean(rel), maxOf(rel)};
}

} // namespace adapt
