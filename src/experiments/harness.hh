/**
 * @file
 * Shared experiment harness: compiles a workload for a machine, runs
 * the four policies, and formats table rows.  Every figure/table
 * bench binary is a thin driver over these helpers.
 */

#ifndef ADAPT_EXPERIMENTS_HARNESS_HH
#define ADAPT_EXPERIMENTS_HARNESS_HH

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "adapt/policies.hh"
#include "workloads/benchmarks.hh"

namespace adapt
{

/** All-policy result for one (workload, machine, protocol) cell. */
struct SuiteRow
{
    std::string workload;
    std::string machine;
    DDProtocol protocol = DDProtocol::XY4;

    /** Absolute No-DD fidelity (the number under each benchmark
     *  label in Figs. 13-15). */
    double baselineFidelity = 0.0;

    /** Absolute fidelity per policy. */
    std::map<Policy, double> fidelity;

    /** Fidelity relative to No-DD. */
    double
    relative(Policy policy) const
    {
        const double base = std::max(baselineFidelity, 1e-6);
        return fidelity.at(policy) / base;
    }
};

/** Knobs shared by the suite benches. */
struct SuiteOptions
{
    PolicyOptions policy;

    /** Policies to evaluate (default: all four). */
    std::vector<Policy> policies = {Policy::NoDD, Policy::AllDD,
                                    Policy::Adapt, Policy::RuntimeBest};

    /** Calibration cycle. */
    int cycle = 0;

    /**
     * Workload chunks in evaluateSuite(); <= 0 (default) uses
     * ADAPT_NUM_THREADS or the hardware concurrency.  Each workload's
     * own candidate batches and shots fan out across the process pool
     * whatever this is, so 1 evaluates the workloads one at a time on
     * the whole pool.  Results are identical at any setting.
     */
    int threads = 0;
};

/**
 * Compile @p workload for @p device and evaluate the configured
 * policies under the given DD protocol.
 */
SuiteRow evaluateWorkload(const Workload &workload, const Device &device,
                          DDProtocol protocol,
                          const SuiteOptions &options);

/** Run a whole suite (convenience loop over evaluateWorkload). */
std::vector<SuiteRow> evaluateSuite(const std::vector<Workload> &suite,
                                    const Device &device,
                                    DDProtocol protocol,
                                    const SuiteOptions &options);

/** Print a Fig. 13/14/15-style table of relative fidelities. */
void printSuiteTable(std::ostream &os, const std::vector<SuiteRow> &rows);

/** Min / geometric-mean / max of relative fidelity for a policy
 *  (a Table 5 cell). */
struct Summary
{
    double min = 0.0;
    double gmean = 0.0;
    double max = 0.0;
};

/** Aggregate relative fidelities of one policy over suite rows. */
Summary summarize(const std::vector<SuiteRow> &rows, Policy policy);

} // namespace adapt

#endif // ADAPT_EXPERIMENTS_HARNESS_HH
