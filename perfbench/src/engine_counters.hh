/**
 * @file
 * Engine-layer counters gathered from RunOutcome stats around the
 * benchmark's run calls: time and shots per execution path (per-shot
 * dense replay, grouped dense replay, batch frame engine) plus the
 * grouped dense path's occupancy stats.
 */

#ifndef PERFBENCH_ENGINE_COUNTERS_HH
#define PERFBENCH_ENGINE_COUNTERS_HH

#include <mutex>
#include <span>

#include "bench.hh"
#include "noise/machine.hh"
#include "noise/program_cache.hh"

namespace perfbench
{

class EngineCounters
{
  public:
    /** Record one run call: @p jobs executed as one batch in
     *  @p seconds with outcomes @p outs. */
    void
    add(std::span<const adapt::PreparedCircuit> jobs,
        std::span<const adapt::RunOutcome> outs, double seconds)
    {
        std::lock_guard<std::mutex> lock(mu_);
        int64_t shots = 0;
        for (const adapt::RunOutcome &out : outs) {
            shots += out.shotsDone;
            dense_.merge(out.denseStats);
        }
        if (jobs.empty())
            return;
        // Jobs of one batch share a register, so they share a path.
        Path &path = jobs[0].backend() == adapt::BackendKind::Stabilizer
                         ? framePath_
                     : outs[0].denseStats.shots > 0 ? grouped_
                                                    : pershot_;
        path.seconds += seconds;
        path.shots += shots;
    }

    int64_t
    shots() const
    {
        return pershot_.shots + grouped_.shots + framePath_.shots;
    }

    /** dense.* metrics (0 where the path did not run). */
    void
    report(Outcome &out) const
    {
        out.metrics["dense.pershot_ns_per_shot"] = pershot_.nsPerShot();
        out.metrics["dense.grouped_ns_per_shot"] = grouped_.nsPerShot();
        const auto shots = static_cast<double>(dense_.shots);
        out.metrics["dense.mean_group_size"] =
            ratio(shots, static_cast<double>(dense_.groups));
        out.metrics["dense.no_error_frac"] =
            ratio(static_cast<double>(dense_.noErrorShots), shots);
        out.metrics["dense.batched_frac"] =
            ratio(static_cast<double>(dense_.batchedShots), shots);
    }

  private:
    struct Path
    {
        double seconds = 0.0;
        int64_t shots = 0;

        double nsPerShot() const
        {
            return ratio(1e9 * seconds, static_cast<double>(shots));
        }
    };

    std::mutex mu_;
    Path pershot_, grouped_, framePath_;
    adapt::DenseBatchStats dense_;
};

/** Hit ratio of the process-shared program cache over a scope. */
class CacheWatch
{
  public:
    CacheWatch() : before_(now()) {}

    double
    hitRatio() const
    {
        const adapt::ProgramCache::Stats after = now();
        const auto hits = static_cast<double>(after.hits - before_.hits);
        const auto misses =
            static_cast<double>(after.misses - before_.misses);
        return ratio(hits, hits + misses);
    }

  private:
    static adapt::ProgramCache::Stats
    now()
    {
        const adapt::ProgramCache *cache =
            adapt::ProgramCache::processShared();
        return cache != nullptr ? cache->stats()
                                : adapt::ProgramCache::Stats{};
    }

    adapt::ProgramCache::Stats before_;
};

} // namespace perfbench

#endif // PERFBENCH_ENGINE_COUNTERS_HH
