/**
 * @file
 * perfbench: the repository's end-to-end benchmark.
 *
 *   perfbench --workload <suite_fig13|frame_char_100q|serve_mixed>
 *             --seed <n> --seconds <s> --trace <0|1> [--rev <text>]
 *   perfbench --list-metrics
 *
 * Prints one metadata line (`meta {...}`) and, as the last line of
 * standard output, the result object: whether every output check
 * passed, operations attempted and failed, and every end-to-end metric
 * (--trace 0) or every per-layer metric (--trace 1), each with its
 * unit.  Traced runs also write their spans under <binary dir>/traces.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>

#include "bench.hh"
#include "sim/frame_batch.hh"
#include "sim/statevector.hh"
#include "workloads/benchmarks.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace
{

using MetricList = std::vector<std::pair<std::string, std::string>>;

const MetricList kEndToEnd = {
    {"setup_s", "s"},         {"wall_s", "s"},
    {"cpu_s", "s"},           {"peak_rss_mb", "MB"},
    {"adapt_gmean_rel", "ratio"}, {"shots_per_s", "shots/s"},
    {"jobs_per_s", "jobs/s"}, {"job_p50_ms", "ms"},
    {"job_p99_ms", "ms"},     {"bulk_shots_per_s", "shots/s"},
};

MetricList
perLayer()
{
    MetricList m = {{"pool.busy_frac", "ratio"},
                    {"suite.critical_path_share", "ratio"}};
    for (const adapt::Workload &w : adapt::paperBenchmarks())
        m.push_back({"wl." + w.name + ".s", "s"});
    const MetricList rest = {
        {"dense.pershot_ns_per_shot", "ns/shot"},
        {"dense.grouped_ns_per_shot", "ns/shot"},
        {"dense.mean_group_size", "shots"},
        {"dense.no_error_frac", "ratio"},
        {"dense.batched_frac", "ratio"},
        {"frame.bare100_ns_per_shot", "ns/shot"},
        {"frame.dd100_ns_per_shot", "ns/shot"},
        {"frame.tail20_ns_per_shot", "ns/shot"},
        {"frame.tail_frac", "ratio"},
        {"frame.deferred_frac", "ratio"},
        {"frame.max_tail_depth", "count"},
        {"prepare.self_s", "s"},
        {"prepare.calls", "count"},
        {"cache.hit_ratio", "ratio"},
        {"client.prepare_ms_p50", "ms"},
        {"svc.ms_p50", "ms"},
        {"server.wait_ms_p50", "ms"},
        {"server.wait_ms_p99", "ms"},
        {"server.rejected", "count"},
        {"server.retried", "count"},
        {"shard.leases", "count"},
        {"shard.reassigned", "count"},
        {"shard.ms_per_lease", "ms"},
        {"shard.efficiency", "ratio"},
        {"shard.spawn_s", "s"},
        {"transpile.self_s", "s"},
        {"ideal.self_s", "s"},
        {"decoy.self_s", "s"},
        {"decoy.ideal_s", "s"},
        {"dd.self_s", "s"},
        {"dd.pulses", "count"},
        {"run.self_s", "s"},
        {"run.shots", "count"},
        {"fidelity.self_s", "s"},
        {"search.decoys", "count"},
        {"search.share", "ratio"},
        {"rb.share", "ratio"},
        {"stages.coverage", "ratio"},
        {"trace.overhead", "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
executableDir()
{
    return std::filesystem::read_symlink("/proc/self/exe")
        .parent_path()
        .string();
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed "
                 "<n> --seconds <s> --trace <0|1> [--rev <text>]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig config;
    std::string rev = "unknown";
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--list-metrics") {
            for (const auto &[name, unit] : kEndToEnd)
                std::printf("end_to_end %s %s\n", name.c_str(), unit.c_str());
            for (const auto &[name, unit] : perLayer())
                std::printf("per_layer %s %s\n", name.c_str(), unit.c_str());
            return 0;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                config.workload = value;
            } else if (arg == "--seed") {
                config.seed = std::stoull(value);
                have_seed = true;
            } else if (arg == "--seconds") {
                config.seconds = std::stod(value);
                have_seconds = config.seconds > 0.0;
            } else if (arg == "--trace") {
                config.trace = std::stoi(value) != 0;
                have_trace = true;
            } else if (arg == "--rev") {
                rev = value;
            } else {
                usage(("unknown argument " + arg).c_str());
            }
        } catch (const std::exception &) {
            usage(("bad value for " + arg).c_str());
        }
    }
    Outcome (*run)(const RunConfig &) = nullptr;
    if (config.workload == "suite_fig13")
        run = runSuite;
    else if (config.workload == "frame_char_100q")
        run = runFrame;
    else if (config.workload == "serve_mixed")
        run = runServe;
    else
        usage("unknown workload");
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds and --trace are required");

    config.threads =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    const std::string dir = executableDir();
    config.workerBinary = dir + "/adapt_shard_worker";
    config.traceDir = dir + "/traces";

    warmUpHost(config.threads);
    const double contention_start = contentionRatio(config.threads);
    const HostTicks ticks0 = hostTicks();
    Outcome out;
    try {
        out = run(config);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     config.workload.c_str(), e.what());
        return 1;
    }
    const double steal = stealShare(ticks0, hostTicks());
    const double contention_end = contentionRatio(config.threads);
    if (out.attempted < 1) {
        std::fprintf(stderr, "perfbench: %s attempted nothing\n",
                     config.workload.c_str());
        return 1;
    }

    const MetricList &list = config.trace ? perLayer() : kEndToEnd;
    if (config.trace) {
        // The "stages add up" rule.
        out.check(out.metrics["stages.coverage"] >= 0.95,
                  "stage self-times cover under 95% of traced busy time");
    }
    std::string metrics;
    for (const auto &[name, unit] : list) {
        // Layers a workload does not exercise report 0.
        double v = out.metrics.count(name) ? out.metrics.at(name) : 0.0;
        if (!config.trace && !out.metrics.count(name))
            out.check(false, "end-to-end metric " + name + " not measured");
        if (!std::isfinite(v)) {
            out.check(false, "metric " + name + " is not finite");
            v = 0.0;
        }
        if (!metrics.empty())
            metrics += ", ";
        metrics += jsonString(name) + ": {\"value\": " + number(v) +
                   ", \"unit\": " + jsonString(unit) + "}";
    }
    for (const std::string &p : out.problems)
        std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());

    std::string meta = "{\"workload\": " + jsonString(config.workload) +
                       ", \"seed\": " + std::to_string(config.seed) +
                       ", \"seconds\": " + number(config.seconds) +
                       ", \"trace\": " + (config.trace ? "1" : "0") +
                       ", \"nproc\": " + std::to_string(config.threads) +
                       ", \"dense_isa\": " + jsonString(adapt::denseKernelIsa()) +
                       ", \"frame_isa\": " + jsonString(adapt::frameKernelIsa()) +
                       ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
                       ", \"rev\": " + jsonString(rev) +
                       ", \"contention_start\": " + number(contention_start) +
                       ", \"contention_end\": " + number(contention_end) +
                       ", \"steal_share\": " + number(steal);
    for (const auto &[key, value] : out.info)
        meta += ", " + jsonString(key) + ": " + number(value);
    std::printf("meta %s}\n", meta.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {%s}}\n",
                out.problems.empty() && out.failed == 0 ? "true" : "false",
                static_cast<long long>(out.attempted),
                static_cast<long long>(out.failed), metrics.c_str());
    return 0;
}
