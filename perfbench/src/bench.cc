#include "bench.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "noise/program_cache.hh"

namespace perfbench
{

uint64_t
deriveSeed(uint64_t seed, uint64_t tag)
{
    uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag + 0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace
{

double
rusageCpu(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               1e-6 * static_cast<double>(tv.tv_usec);
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** A fixed amount of integer work the optimizer cannot drop. */
uint64_t
spin(uint64_t iterations)
{
    uint64_t x = 88172645463325252ULL;
    for (uint64_t i = 0; i < iterations; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

} // namespace

double
selfCpuSeconds()
{
    return rusageCpu(RUSAGE_SELF);
}

double
childCpuSeconds()
{
    return rusageCpu(RUSAGE_CHILDREN);
}

double
pidCpuSeconds(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text;
    if (!std::getline(in, text))
        return 0.0;
    // Fields after the parenthesized command name; utime and stime
    // are fields 14 and 15 of the whole line.
    const size_t close = text.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 3; i <= 15 && fields >> field; i++) {
        if (i >= 14)
            ticks += std::stod(field);
    }
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

HostTicks
hostTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    HostTicks t;
    double v = 0.0;
    // user nice system idle iowait irq softirq steal guest guest_nice
    for (int i = 0; i < 8 && in >> v; i++) {
        t.total += v;
        if (i == 7)
            t.steal = v;
    }
    return t;
}

namespace
{

/** Wall time of spin(iterations) run on @p threads threads at once. */
double
timedSpin(int threads, uint64_t iterations)
{
    std::atomic<uint64_t> sink{0};
    const int64_t t0 = nowNs();
    std::vector<std::thread> pool;
    for (int i = 0; i < threads; i++)
        pool.emplace_back([&] { sink += spin(iterations); });
    for (std::thread &t : pool)
        t.join();
    return secondsBetween(t0, nowNs());
}

constexpr uint64_t kProbeIterations = 30'000'000;

} // namespace

void
warmUpHost(int threads)
{
    // vCPUs idle for a while come back slowly; keep them all busy for a
    // moment so set-up is not timed on a cold host.
    const int64_t t0 = nowNs();
    while (secondsBetween(t0, nowNs()) < 0.5)
        timedSpin(threads, kProbeIterations);
}

double
contentionRatio(int threads)
{
    const double one = timedSpin(1, kProbeIterations);
    return timedSpin(threads, kProbeIterations) / one;
}

void
coldCache()
{
    if (adapt::ProgramCache *cache = adapt::ProgramCache::processShared())
        cache->clear();
}

void
dumpSpans(const RunConfig &config, const std::vector<Span> &spans)
{
    std::filesystem::create_directories(config.traceDir);
    const std::string path = config.traceDir + "/spans-" + config.workload +
                             "-" + std::to_string(config.seed) + ".jsonl";
    std::ofstream os(path);
    writeSpans(os, spans, config.workload);
}

void
addTraceMetrics(Outcome &out, const std::vector<Span> &spans, int units,
                double traced_wall, double untraced_wall)
{
    out.metrics["stages.coverage"] = stageCoverage(spans);
    out.metrics["trace.overhead"] = traced_wall / untraced_wall - 1.0;
    const auto totals = stageTotals(spans);
    const auto per_unit = [&](const char *stage, bool count) {
        const auto it = totals.find(stage);
        if (it == totals.end())
            return 0.0;
        return (count ? static_cast<double>(it->second.count)
                      : it->second.selfS) /
               units;
    };
    for (const char *stage : {"transpile", "ideal", "decoy", "dd",
                              "prepare", "run", "fidelity"})
        out.metrics[std::string(stage) + ".self_s"] = per_unit(stage, false);
    out.metrics["prepare.calls"] = per_unit("prepare", true);
}

} // namespace perfbench
