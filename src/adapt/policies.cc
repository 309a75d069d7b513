#include "adapt/policies.hh"

#include <algorithm>
#include <set>
#include <utility>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace adapt
{

std::string
policyName(Policy policy)
{
    switch (policy) {
      case Policy::NoDD: return "no-dd";
      case Policy::AllDD: return "all-dd";
      case Policy::Adapt: return "adapt";
      case Policy::RuntimeBest: return "runtime-best";
    }
    panic("unreachable policy");
}

ScheduledCircuit
applyMask(const CompiledProgram &program, const NoisyMachine &machine,
          const DDOptions &dd, const std::vector<bool> &logical_mask)
{
    return insertDD(program.schedule, machine.calibration(), dd,
                    liftMask(program, logical_mask));
}

namespace
{

PolicyOutcome
runWithMask(Policy policy, const CompiledProgram &program,
            const NoisyMachine &machine, const Distribution &ideal,
            const PolicyOptions &options,
            const std::vector<bool> &logical_mask, uint64_t seed)
{
    PolicyOutcome outcome;
    outcome.policy = policy;
    outcome.logicalMask = logical_mask;
    ScheduledCircuit sched =
        applyMask(program, machine, options.adapt.dd, logical_mask);
    if (policy == Policy::AllDD) {
        // All-DD covers *every* qubit (including routing ancillas),
        // not just program qubits.
        sched = insertDDAll(program.schedule, machine.calibration(),
                            options.adapt.dd);
    }
    outcome.ddPulses = ddPulseCount(sched);
    outcome.output = machine.run(sched, options.shots, seed,
                                 /*threads=*/0, options.adapt.backend);
    outcome.fidelity = fidelity(ideal, outcome.output);
    return outcome;
}

} // namespace

PolicyOutcome
evaluatePolicy(Policy policy, const CompiledProgram &program,
               const NoisyMachine &machine, const Distribution &ideal,
               const PolicyOptions &options)
{
    const auto n_log = static_cast<size_t>(program.logicalQubits);
    const std::vector<bool> none(n_log, false);
    const std::vector<bool> all(n_log, true);

    switch (policy) {
      case Policy::NoDD:
        return runWithMask(policy, program, machine, ideal, options,
                           none, options.seed);
      case Policy::AllDD:
        return runWithMask(policy, program, machine, ideal, options,
                           all, options.seed);
      case Policy::Adapt: {
        const AdaptResult search =
            adaptSearch(program, machine, options.adapt);
        PolicyOutcome outcome =
            runWithMask(policy, program, machine, ideal, options,
                        search.logicalMask, options.seed);
        outcome.searchRuns = search.decoysExecuted;
        return outcome;
      }
      case Policy::RuntimeBest: {
        // Oracle: try masks on the *real* program and keep the best.
        // Programs with >= 64 logical qubits cannot enumerate (the
        // 1 << n_log key would overflow before the budget comparison
        // even happens), so they always take the sampled branch.
        std::vector<std::vector<bool>> candidates;
        const bool enumerable =
            program.logicalQubits < 64 &&
            (uint64_t{1} << n_log) <=
                static_cast<uint64_t>(options.runtimeBestBudget);
        if (enumerable) {
            const uint64_t full = uint64_t{1} << n_log;
            for (uint64_t bits = 0; bits < full; bits++) {
                std::vector<bool> mask(n_log, false);
                for (size_t b = 0; b < n_log; b++)
                    mask[b] = (bits >> b) & 1;
                candidates.push_back(std::move(mask));
            }
        } else {
            // Sampled enumeration: the exact oracle is exponential;
            // keep the two structured masks plus random ones.  Masks
            // are deduplicated so a repeated draw doesn't burn a slot
            // of the budget on a candidate already being run; the
            // budget is always reachable because this branch implies
            // strictly more than runtimeBestBudget distinct masks
            // exist.
            std::set<std::vector<bool>> seen;
            auto add_unique = [&](std::vector<bool> mask) {
                if (seen.insert(mask).second)
                    candidates.push_back(std::move(mask));
            };
            add_unique(none);
            add_unique(all);
            Rng rng(options.seed ^ 0xbe57);
            while (static_cast<int>(candidates.size()) <
                   options.runtimeBestBudget) {
                std::vector<bool> mask(n_log, false);
                for (size_t b = 0; b < n_log; b++)
                    mask[b] = rng.bernoulli(0.5);
                add_unique(std::move(mask));
            }
        }

        // The candidates are independent program executions, so they
        // run as one batch; seeds follow the historical serial
        // derivation (one per candidate, in candidate order), and the
        // first strictly-best fidelity wins, matching the serial
        // loop's tie-breaking.  DD insertion fans out across the pool
        // as well, and each candidate is prepared inside its own run
        // task, so only the candidates in flight hold a compiled job.
        const size_t n_cand = candidates.size();
        std::vector<ScheduledCircuit> scheds(n_cand,
                                             ScheduledCircuit(0, 0));
        std::vector<int> dd_pulses(n_cand, 0);
        std::vector<uint64_t> seeds(n_cand);
        for (size_t i = 0; i < n_cand; i++)
            seeds[i] = options.seed + static_cast<uint64_t>(i) * 104729;
        parallelFor(0, static_cast<int64_t>(n_cand),
                    options.adapt.threads,
                    [&](int64_t lo, int64_t hi, int) {
            for (int64_t i = lo; i < hi; i++) {
                const auto ci = static_cast<size_t>(i);
                scheds[ci] = applyMask(program, machine, options.adapt.dd,
                                       candidates[ci]);
                dd_pulses[ci] = ddPulseCount(scheds[ci]);
            }
        });
        const std::vector<Distribution> outputs = machine.runBatch(
            scheds, options.shots, seeds, options.adapt.threads,
            options.adapt.backend);

        size_t win = 0;
        double best_fid = -1.0;
        for (size_t i = 0; i < outputs.size(); i++) {
            const double fid = fidelity(ideal, outputs[i]);
            if (fid > best_fid) {
                best_fid = fid;
                win = i;
            }
        }

        PolicyOutcome best;
        best.policy = policy;
        best.logicalMask = std::move(candidates[win]);
        best.output = outputs[win];
        best.fidelity = best_fid;
        best.ddPulses = dd_pulses[win];
        best.searchRuns = static_cast<int>(outputs.size());
        return best;
      }
    }
    panic("unreachable policy");
}

} // namespace adapt
