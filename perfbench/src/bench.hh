/**
 * @file
 * Shared plumbing of the benchmark's workloads: run configuration,
 * outcome record, seed derivation, host probes, and the repeat loops
 * that turn one unit of fixed work into a run of about --seconds.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hh"
#include "trace.hh"

namespace perfbench
{

struct RunConfig
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    int threads = 1;          //!< hardware threads used for fan-outs
    std::string workerBinary; //!< adapt_shard_worker path
    std::string traceDir;     //!< where span dumps go
};

/** What a workload reports.  Metric names are those of BENCHMARK.json
 *  (main.cc prints the list that matches the run's trace mode). */
struct Outcome
{
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> problems; //!< failed output checks
    std::map<std::string, double> metrics;
    std::map<std::string, double> info; //!< run metadata (not metrics)

    void check(bool ok, const std::string &what)
    {
        if (!ok)
            problems.push_back(what);
    }
};

Outcome runSuite(const RunConfig &config);
Outcome runFrame(const RunConfig &config);
Outcome runServe(const RunConfig &config);

/**
 * Seed of stream @p tag under run seed @p seed (splitmix64 of both).
 * Distinct tags give unrelated streams; the same (seed, tag) always
 * gives the same value.
 */
uint64_t deriveSeed(uint64_t seed, uint64_t tag);

/** Process CPU seconds (user + system) of this process. */
double selfCpuSeconds();

/** CPU seconds of reaped child processes. */
double childCpuSeconds();

/** CPU seconds of a live process from /proc (0 if it is gone). */
double pidCpuSeconds(int pid);

/** Peak resident set size of this process, MB. */
double peakRssMb();

/** Spin every thread for about half a second before anything is
 *  timed. */
void warmUpHost(int threads);

/**
 * Contention probe: wall time of a fixed spin on all @p threads at once
 * divided by the same spin on one thread (1.0 on an idle host).
 */
double contentionRatio(int threads);

/** Host CPU accounting from /proc/stat: steal and total ticks. */
struct HostTicks
{
    double steal = 0.0;
    double total = 0.0;
};
HostTicks hostTicks();

/** Share of all vCPU time the hypervisor stole between two readings. */
inline double
stealShare(const HostTicks &a, const HostTicks &b)
{
    return ratio(b.steal - a.steal, b.total - a.total);
}

/** Seconds between two nowNs() readings. */
inline double
secondsBetween(int64_t t0, int64_t t1)
{
    return 1e-9 * static_cast<double>(t1 - t0);
}

/**
 * Run @p unit(i) for i = 0, 1, ... until at least @p min_units ran and
 * the next unit would likely end past @p seconds.  Returns the count.
 */
template <class Unit>
int
repeatFor(double seconds, int min_units, Unit &&unit)
{
    double elapsed = 0.0;
    double last = 0.0;
    int n = 0;
    do {
        const int64_t t0 = nowNs();
        unit(n);
        last = secondsBetween(t0, nowNs());
        elapsed += last;
        n++;
    } while (n < min_units || elapsed + last <= seconds);
    return n;
}

/** Median wall time of @p reps calls of @p setup, each after an
 *  untimed @p reset that returns the process to a cold state. */
template <class Reset, class Setup>
double
medianSetupSeconds(int reps, Reset &&reset, Setup &&setup)
{
    std::vector<double> times;
    for (int i = 0; i < reps; i++) {
        reset();
        const int64_t t0 = nowNs();
        setup();
        times.push_back(secondsBetween(t0, nowNs()));
    }
    return median(times);
}

/**
 * Traced runs split their time: untraced units first (the overhead
 * baseline), then the same units traced.  Untraced runs use all of it.
 */
inline double
untracedShare(const RunConfig &config)
{
    return config.trace ? config.seconds / 2.0 : config.seconds;
}

/** Empty the process-shared program cache (a cold start). */
void coldCache();

/** Write the run's spans to <traceDir>/spans-<workload>-<seed>.jsonl. */
void dumpSpans(const RunConfig &config, const std::vector<Span> &spans);

/**
 * Layer metrics every workload derives from its spans: stage coverage,
 * trace overhead (median traced unit wall over median untraced unit
 * wall, minus 1), and per-unit self times and call counts of the
 * shared stages.
 */
void addTraceMetrics(Outcome &out, const std::vector<Span> &spans, int units,
                     double traced_wall, double untraced_wall);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
