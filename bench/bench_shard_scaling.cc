/**
 * @file
 * Shard-executor scaling and kill-storm recovery (PR 9 artefact).
 *
 * Two experiments against the in-process run() oracle:
 *
 *  - **clean scaling**: one large-shot dense job (QFT-8 on
 *    ibmq_guadalupe) sharded across pools of 1/2/4/8 workers.  Reports
 *    wall time, shots/sec, speedup over the single-worker pool, and
 *    parallel efficiency (speedup normalized by the cores actually
 *    available — worker processes cannot outrun the machine, so on a
 *    P-core host the ideal speedup of W workers is min(W, P));
 *    every merged histogram is checked bit-identical to the oracle.
 *
 *  - **kill storm**: the same job on an 8-worker pool while a killer
 *    thread SIGKILLs live workers mid-job (at least half the pool,
 *    well past the >= 25% bar).  The job must still complete with the
 *    oracle histogram; the recovery counters (crashes detected,
 *    leases reassigned, restarts, mean detection latency) land in
 *    the artefact.
 *
 * Run from the build tree (the worker binary `adapt_shard_worker`
 * resolves relative to the bench executable):
 *
 *   ./bench/bench_shard_scaling --bench_json=BENCH_pr9.json
 */

#include "bench_common.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <thread>

#include "serve/shard_executor.hh"
#include "transpile/transpiler.hh"

using namespace adapt;
using namespace adapt::serve;

namespace
{

constexpr int kShots = 2048;
constexpr uint64_t kSeed = 9;

bool
identical(const Distribution &a, const Distribution &b)
{
    return a.totalSamples() == b.totalSamples() &&
           a.probabilities() == b.probabilities();
}

ShardOptions
poolOf(int workers)
{
    ShardOptions opts;
    opts.workers = workers;
    opts.leaseBlocks = 1; // 64-shot leases: ~230 ms of compute each
    opts.heartbeatMs = 5000; // nothing stalls in this bench
    return opts;
}

void
runExperiment()
{
    banner("Shard executor scaling",
           "multi-process shot-block sharding of one large dense job "
           "(QFT-8 on ibmq_guadalupe), plus a mid-job kill storm");
    benchio::open("shard_scaling",
                  "shard-executor scaling across worker pools and "
                  "kill-storm recovery; every case is checked "
                  "bit-identical against the in-process oracle");

    const Device device = Device::ibmqGuadalupe();
    const NoisyMachine machine(device);
    const CompiledProgram program = transpile(
        makeQft(8, QftState::A), device, device.calibration(0));
    const PreparedCircuit prepared = machine.prepare(program.schedule);

    // The correctness bar for every case below, and the speedup
    // baseline for none of them (it runs the in-process thread pool).
    const Distribution oracle = machine.run(prepared, kShots, kSeed);

    // ------------------------------------------------ clean scaling
    const int cores = std::max(
        1u, std::thread::hardware_concurrency());
    if (cores < 8) {
        std::printf("note: %d hardware thread(s) — ideal speedup of "
                    "W workers is min(W, %d), efficiency is speedup "
                    "against that bound\n",
                    cores, cores);
    }
    std::printf("%-8s %10s %12s %10s %12s %10s\n", "workers",
                "wall_s", "shots/sec", "speedup", "efficiency",
                "identical");
    double base_wall = 0.0;
    for (const int workers : {1, 2, 4, 8}) {
        ShardExecutor exec(machine, poolOf(workers));
        if (!exec.available()) {
            std::printf("shard executor unavailable (worker binary "
                        "not found); skipping\n");
            return;
        }
        // Spawn the pool and page in the worker binary before the
        // clock starts, so the timed run measures steady-state
        // sharding rather than process startup.
        exec.runSharded(prepared, program.schedule, 64, kSeed);
        const auto t0 = std::chrono::steady_clock::now();
        const RunOutcome out = exec.runSharded(
            prepared, program.schedule, kShots, kSeed);
        const auto t1 = std::chrono::steady_clock::now();
        const double wall =
            std::chrono::duration<double>(t1 - t0).count();
        if (workers == 1)
            base_wall = wall;
        const bool match = !out.partial && identical(out.dist, oracle);
        const ShardStats s = exec.stats();
        const double speedup = base_wall / std::max(wall, 1e-9);
        const double efficiency =
            speedup / std::min(workers, cores);
        std::printf("%-8d %10.3f %12.0f %10.2f %12.2f %10s\n",
                    workers, wall, kShots / std::max(wall, 1e-9),
                    speedup, efficiency, match ? "yes" : "NO");
        benchio::record("clean_workers" + std::to_string(workers))
            .metric("workers", workers)
            .metric("hardware_threads", cores)
            .metric("shots", kShots)
            .metric("wall_s", wall)
            .metric("shots_per_sec", kShots / std::max(wall, 1e-9))
            .metric("speedup_vs_1", speedup)
            .metric("parallel_efficiency", efficiency)
            .metric("leases_granted",
                    static_cast<double>(s.leasesGranted))
            .metric("identical", match ? 1.0 : 0.0);
    }

    // --------------------------------------------------- kill storm
    constexpr int kStormWorkers = 8;
    ShardExecutor exec(machine, poolOf(kStormWorkers));
    std::atomic<int64_t> committed{0};
    RunControl ctl;
    ctl.progress = [&](int64_t shots) { committed.store(shots); };

    RunOutcome out;
    std::atomic<bool> done{false};
    const auto t0 = std::chrono::steady_clock::now();
    std::thread job([&] {
        out = exec.runSharded(prepared, program.schedule, kShots,
                              kSeed, ctl);
        done.store(true);
    });

    // Kill half the pool (>= 25% bar), one worker at a time, only
    // once the job has provably committed work — every kill lands
    // mid-job on a worker that may hold a lease.
    const int target = kStormWorkers / 2;
    int killed = 0;
    while (!done.load() && killed < target) {
        if (committed.load() == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            continue;
        }
        const std::vector<int> pids = exec.workerPids();
        if (pids.empty()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            continue;
        }
        ::kill(pids.front(), SIGKILL);
        killed++;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    job.join();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    const bool match = !out.partial && identical(out.dist, oracle);
    const ShardStats s = exec.stats();
    std::printf("\nkill storm: %d/%d workers SIGKILLed mid-job, "
                "wall %.3fs, identical=%s\n",
                killed, kStormWorkers, wall, match ? "yes" : "NO");
    std::printf("  crashes detected %llu, leases reassigned %llu, "
                "restarts %llu, mean detection latency %.1f ms\n",
                static_cast<unsigned long long>(s.workersCrashed),
                static_cast<unsigned long long>(s.leasesReassigned),
                static_cast<unsigned long long>(s.workersRestarted),
                s.meanDetectionLatencyMs());
    benchio::record("kill_storm")
        .metric("workers", kStormWorkers)
        .metric("workers_killed", killed)
        .metric("killed_fraction",
                static_cast<double>(killed) / kStormWorkers)
        .metric("shots", kShots)
        .metric("wall_s", wall)
        .metric("workers_crashed",
                static_cast<double>(s.workersCrashed))
        .metric("leases_reassigned",
                static_cast<double>(s.leasesReassigned))
        .metric("workers_restarted",
                static_cast<double>(s.workersRestarted))
        .metric("mean_detection_latency_ms", s.meanDetectionLatencyMs())
        .metric("identical", match ? 1.0 : 0.0);
}

} // namespace

ADAPT_BENCH_MAIN(runExperiment)
