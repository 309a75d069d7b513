/**
 * @file
 * The four competing policies of the evaluation (Sec. 5.6):
 * No-DD baseline, All-DD, ADAPT, and Runtime-Best (the oracle that
 * tries every mask on the real program).
 */

#ifndef ADAPT_ADAPT_POLICIES_HH
#define ADAPT_ADAPT_POLICIES_HH

#include <string>

#include "adapt/search.hh"

namespace adapt
{

/** Competing DD policies. */
enum class Policy
{
    NoDD,        //!< baseline: free evolution everywhere
    AllDD,       //!< DD on every qubit's every idle window
    Adapt,       //!< decoy-guided mask (this paper)
    RuntimeBest, //!< oracle: best mask found by running the program
};

/** Name for logs: "no-dd", "all-dd", "adapt", "runtime-best". */
std::string policyName(Policy policy);

/** Evaluation configuration shared across policies. */
struct PolicyOptions
{
    /** ADAPT search settings (also carries the DDOptions used by
     *  every policy). */
    AdaptOptions adapt;

    /** Shots for the final program execution. */
    int shots = 4000;

    /**
     * Runtime-Best enumerates all 2^N masks when N is small enough;
     * beyond this budget it samples random masks (plus the all-ones
     * mask) to stay tractable.  The paper's Runtime-Best is the full
     * enumeration on hardware.
     */
    int runtimeBestBudget = 256;

    /** Seed for program executions. */
    uint64_t seed = 4242;
};

/** Result of evaluating one policy on one program. */
struct PolicyOutcome
{
    Policy policy = Policy::NoDD;

    /** DD mask over logical qubits that was applied. */
    std::vector<bool> logicalMask;

    /** Measured output on the machine. */
    Distribution output;

    /** Fidelity = 1 - TVD against the ideal program output. */
    double fidelity = 0.0;

    /** Number of DD pulses the mask inserted. */
    int ddPulses = 0;

    /** Decoy executions consumed (ADAPT) or program executions
     *  consumed (Runtime-Best search); 0 otherwise. */
    int searchRuns = 0;
};

/**
 * Evaluate one policy for a compiled program on a machine.
 *
 * @param ideal Ideal (noise-free) output of the program, used for
 *              scoring and by Runtime-Best's oracle selection.
 */
PolicyOutcome evaluatePolicy(Policy policy, const CompiledProgram &program,
                             const NoisyMachine &machine,
                             const Distribution &ideal,
                             const PolicyOptions &options = {});

/**
 * Apply a logical DD mask to the program's schedule (helper shared
 * by the policies and the mask-sweep experiments, e.g. Fig. 8).
 */
ScheduledCircuit applyMask(const CompiledProgram &program,
                           const NoisyMachine &machine,
                           const DDOptions &dd,
                           const std::vector<bool> &logical_mask);

} // namespace adapt

#endif // ADAPT_ADAPT_POLICIES_HH
