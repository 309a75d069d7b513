#include "adapt/search.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace adapt
{

std::vector<bool>
liftMask(const CompiledProgram &program,
         const std::vector<bool> &logical_mask)
{
    require(static_cast<int>(logical_mask.size()) ==
            program.logicalQubits,
            "logical mask width does not match the program");
    std::vector<bool> physical(
        program.initialLayout.physicalToLogical.size(), false);
    for (size_t lq = 0; lq < logical_mask.size(); lq++) {
        if (logical_mask[lq]) {
            const QubitId p = program.initialLayout.logicalToPhysical[lq];
            physical[static_cast<size_t>(p)] = true;
        }
    }
    return physical;
}

AdaptResult
adaptSearch(const CompiledProgram &program, const NoisyMachine &machine,
            const AdaptOptions &options)
{
    require(options.neighborhoodSize >= 1,
            "neighbourhood size must be at least 1");
    // 2^k candidates per neighbourhood: cap k well below the 32-bit
    // combo shift so a wide-register misconfiguration fails loudly
    // instead of overflowing.
    require(options.neighborhoodSize <= 24,
            "neighbourhood size above 24 would enumerate > 2^24 "
            "decoy variants per neighbourhood");

    AdaptResult result;
    result.decoy = makeDecoy(program.physical, options.decoy);

    // Time the decoy identically to the input program.
    const ScheduledCircuit decoy_sched =
        reschedule(result.decoy.circuit, machine.device(),
                   machine.calibration());

    const int n_log = program.logicalQubits;
    result.logicalMask.assign(static_cast<size_t>(n_log), false);

    // Search order: logical qubits by descending idle time of their
    // physical host — the qubits where the DD decision matters most
    // are decided first.
    std::vector<QubitId> order(static_cast<size_t>(n_log));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(
        order.begin(), order.end(), [&](QubitId a, QubitId b) {
            const QubitId pa = program.initialLayout.logicalToPhysical[
                static_cast<size_t>(a)];
            const QubitId pb = program.initialLayout.logicalToPhysical[
                static_cast<size_t>(b)];
            return program.schedule.totalIdleTime(pa) >
                   program.schedule.totalIdleTime(pb);
        });

    int eval_index = 0;
    result.bestDecoyFidelity = -1.0;
    for (size_t group_start = 0;
         group_start < static_cast<size_t>(n_log);
         group_start += static_cast<size_t>(options.neighborhoodSize)) {
        const size_t group_end =
            std::min(group_start +
                         static_cast<size_t>(options.neighborhoodSize),
                     static_cast<size_t>(n_log));
        const int group_bits = static_cast<int>(group_end - group_start);
        const uint32_t num_combos = uint32_t{1} << group_bits;

        // All candidates of this neighbourhood are independent once
        // the previously decided bits are frozen, so build every
        // insertDD variant up front and execute them as one batch.
        // Seeds follow the historical serial derivation (one per
        // evaluation, in combo order), so the batch is bit-identical
        // to the old one-at-a-time loop at any thread count.
        std::vector<std::vector<bool>> candidates(num_combos);
        std::vector<uint64_t> seeds(num_combos);
        for (uint32_t combo = 0; combo < num_combos; combo++) {
            std::vector<bool> candidate = result.logicalMask;
            for (int b = 0; b < group_bits; b++) {
                candidate[static_cast<size_t>(
                    order[group_start + static_cast<size_t>(b)])] =
                    (combo >> b) & 1;
            }
            candidates[combo] = std::move(candidate);
            seeds[combo] = options.seed +
                           static_cast<uint64_t>(eval_index) * 7919;
            eval_index++;
        }

        // DD insertion fans out across the pool; runBatch then
        // prepares each variant (plan lowering + shot-program
        // compilation) inside its own run task, so only the variants
        // in flight hold a compiled job.  Outputs land by combo index,
        // so the parallel build changes nothing observable.
        std::vector<ScheduledCircuit> variants(num_combos,
                                               ScheduledCircuit(0, 0));
        parallelFor(0, static_cast<int64_t>(num_combos),
                    options.threads,
                    [&](int64_t lo, int64_t hi, int) {
            for (int64_t i = lo; i < hi; i++) {
                variants[static_cast<size_t>(i)] = insertDD(
                    decoy_sched, machine.calibration(), options.dd,
                    liftMask(program,
                             candidates[static_cast<size_t>(i)]));
            }
        });

        const std::vector<Distribution> outputs =
            machine.runBatch(variants, options.decoyShots, seeds,
                             options.threads, options.backend);

        std::vector<double> fids(num_combos);
        for (uint32_t combo = 0; combo < num_combos; combo++) {
            fids[combo] =
                fidelity(result.decoy.idealOutput, outputs[combo]);
        }

        // Top-2 scan in combo order (first strictly-greater wins,
        // matching the serial loop's tie-breaking).
        uint32_t best_combo = 0, second_combo = 0;
        double best_fid = -1.0, second_fid = -1.0;
        for (uint32_t combo = 0; combo < num_combos; combo++) {
            const double fid = fids[combo];
            if (fid > best_fid) {
                second_fid = best_fid;
                second_combo = best_combo;
                best_fid = fid;
                best_combo = combo;
            } else if (fid > second_fid) {
                second_fid = fid;
                second_combo = combo;
            }
        }

        // Conservative estimate: union of the top-2 predictions
        // (Sec. 4.3: "1001" + "1011" -> "1011").  The union is itself
        // one of the exhaustively enumerated combos, so the merged
        // mask's true decoy fidelity comes straight out of the batch
        // — no extra execution, and no reporting the pre-merge winner
        // for a mask that was never measured.
        const uint32_t chosen =
            options.conservativeMerge && second_fid >= 0.0
                ? (best_combo | second_combo)
                : best_combo;
        for (int b = 0; b < group_bits; b++) {
            result.logicalMask[static_cast<size_t>(
                order[group_start + static_cast<size_t>(b)])] =
                (chosen >> b) & 1;
        }
        // The final neighbourhood's chosen candidate *is* the
        // returned mask (all earlier bits frozen at their final
        // values), so after the loop this holds its true fidelity.
        result.bestDecoyFidelity = fids[chosen];
    }

    result.decoysExecuted = eval_index;
    result.physicalMask = liftMask(program, result.logicalMask);
    return result;
}

} // namespace adapt
