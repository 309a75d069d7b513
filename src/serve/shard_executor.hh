/**
 * @file
 * Supervised multi-process shard executor.
 *
 * The determinism contract makes distribution safe — a shot block
 * evaluates bit-identically anywhere — and this layer makes it
 * *robust*: a supervisor fork/execs a pool of worker processes (the
 * `adapt_shard_worker` binary), shards one job at a time into leases,
 * and speaks the serve/wire.hh frame protocol with each worker over a
 * socketpair.  A job's compiled block range [0, blockCount) —
 * kFrameLanes-sized blocks on the batch frame path, kShotBlock
 * elsewhere — is cut into leases of `leaseBlocks` consecutive blocks.
 * A worker rebuilds the job once from its SUBMIT and executes each
 * lease it is granted with NoisyMachine::runShardRange.
 *
 * Every lease carries (job seed, absolute block range), so executing
 * it twice — or on a different worker, or in-process — produces the
 * same (outcome, count) items; the coordinator merges item lists by
 * key with exact integer addition (mergeShardItems).  The merged
 * histogram is therefore bit-identical to the in-process run()
 * oracle *regardless of the failure pattern*.
 *
 * Failure handling, in detection order:
 *  - **crash**: a worker's stream hits EOF (SIGKILL, _exit, OOM...).
 *    The worker is reaped, its outstanding lease reassigned, and a
 *    replacement spawned (up to `maxRestarts`).
 *  - **hang**: a worker executing a lease must emit PARTIAL frames
 *    (one per committed block); silence past `heartbeatMs` is a
 *    stall — the worker is SIGKILLed and handled as a crash.  The
 *    time from last heartbeat to the kill decision feeds the
 *    mean-detection-latency metric.
 *  - **corruption**: a frame failing its CRC / framing checks kills
 *    the connection (a desynchronized byte stream cannot be
 *    trusted); worker killed, lease reassigned.
 *  - **quarantine**: a lease failing `maxLeaseAttempts` times stops
 *    being offered to workers and executes in-process instead
 *    (runShardRange on the coordinator) — one poisonous lease
 *    degrades throughput, never correctness.
 *  - **degradation**: with no spawnable workers at all (exec
 *    failures, restart budget exhausted), remaining leases run
 *    in-process; the job still completes bit-identically.
 *
 * Deterministic failure injection: serve/fault.hh's process-level
 * sites — WorkerCrash / LeaseStall / FrameCorrupt keyed by
 * faultKey(lease ordinal, attempt), ExecFailure keyed by the spawn
 * ordinal — are evaluated inside the worker (the coordinator ships
 * its FaultConfig in every SUBMIT), so whether a recovery path fires
 * is a pure function of (schedule seed, site, key): independent of
 * worker count, interleaving, and wall-clock.  Replaying a
 * kill-storm schedule replays every reassignment.
 */

#ifndef ADAPT_SERVE_SHARD_EXECUTOR_HH
#define ADAPT_SERVE_SHARD_EXECUTOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "noise/machine.hh"

namespace adapt::serve
{

/** Pool tuning; fromEnv() layers ADAPT_SHARD_* knobs on defaults.
 *  ShardExecutor holds values set in code to the same floors: one
 *  below its knob's floor warns once and takes the default. */
struct ShardOptions
{
    /** Worker processes; 0 disables the executor entirely (the
     *  in-process path is untouched). */
    int workers = 0;

    /** Consecutive shard blocks per shot-block lease. */
    int64_t leaseBlocks = 4;

    /** A busy worker silent for longer than this is presumed hung
     *  and killed. */
    int heartbeatMs = 1000;

    /** Failed attempts before a lease is quarantined in-process. */
    int maxLeaseAttempts = 3;

    /** Replacement workers spawned over the executor's lifetime
     *  (beyond the initial pool) before it stops restarting. */
    int maxRestarts = 16;

    /** Worker binary path; empty = ADAPT_SHARD_WORKER_BIN, then
     *  `adapt_shard_worker` next to (or one/two levels above) the
     *  running executable. */
    std::string workerBinary;

    /**
     * Defaults overlaid with the environment:
     *   ADAPT_SHARD_WORKERS       (int >= 0, 0 = disabled)
     *   ADAPT_SHARD_LEASE_BLOCKS  (int >= 1)
     *   ADAPT_SHARD_HEARTBEAT_MS  (int >= 10)
     *   ADAPT_SHARD_MAX_ATTEMPTS  (int >= 1)
     *   ADAPT_SHARD_MAX_RESTARTS  (int >= 0)
     *   ADAPT_SHARD_WORKER_BIN    (path)
     * Garbage values warn (common/env.hh) and keep the default.
     */
    static ShardOptions fromEnv();
};

/** Recovery metrics (monotonic since construction). */
struct ShardStats
{
    uint64_t jobsSharded = 0;   //!< runSharded calls served
    uint64_t jobsDegraded = 0;  //!< completed partly/fully in-process

    uint64_t leasesGranted = 0;
    uint64_t leasesCompleted = 0;   //!< RESULT accepted from a worker
    uint64_t leasesReassigned = 0;  //!< lost to a failure, re-granted
    uint64_t leasesQuarantined = 0; //!< executed in-process
    uint64_t leasesInProcess = 0;   //!< degraded-path in-process runs

    uint64_t workersSpawned = 0;
    uint64_t workersRestarted = 0;
    uint64_t workersCrashed = 0; //!< EOF while owing a lease
    uint64_t workersStalled = 0; //!< killed by the heartbeat watchdog
    uint64_t corruptFrames = 0;  //!< connections dropped on CRC/framing
    uint64_t execFailures = 0;   //!< spawns that never came up

    /** Failure-detection latency: per crash/stall/corruption, the ms
     *  between the worker's last heartbeat and the coordinator
     *  acting on the failure. */
    double detectionLatencyMsTotal = 0.0;
    uint64_t detections = 0;

    double meanDetectionLatencyMs() const
    {
        return detections == 0
                   ? 0.0
                   : detectionLatencyMsTotal /
                         static_cast<double>(detections);
    }
};

/**
 * The supervisor.  One executor owns one worker pool; runSharded is
 * thread-safe but serializes internally (one sharded job in flight —
 * the JobServer calls it from its one shard-lane thread, so its
 * compute workers never wait here).  Workers are spawned on first
 * use and persist across jobs; the destructor shuts them down.
 */
class ShardExecutor
{
  public:
    /** @p machine must outlive the executor (leases replicate it in
     *  workers via its runcard — see wire::SubmitMsg). */
    ShardExecutor(const NoisyMachine &machine, ShardOptions opts);
    ~ShardExecutor();

    ShardExecutor(const ShardExecutor &) = delete;
    ShardExecutor &operator=(const ShardExecutor &) = delete;

    /** True when workers > 0 and a worker binary was resolved.  An
     *  unavailable executor is inert; callers keep the in-process
     *  path. */
    bool available() const;

    /** Resolved worker binary path ("" when unavailable). */
    const std::string &workerBinary() const;

    /** PIDs of the currently live workers (kill-storm harnesses aim
     *  here). */
    std::vector<int> workerPids() const;

    /**
     * Execute @p shots of @p prepared sharded across the pool.
     * Output is bit-identical to machine.run(prepared, shots, seed)
     * for any pool size and failure pattern.  @p sched must be the
     * schedule @p prepared was prepared from (workers rebuild the
     * job from it).
     *
     * control.token stops the job at lease granularity: the returned
     * prefix covers the leases [0, k) that completed contiguously,
     * bit-identical to an uninterrupted run's first shotsDone shots.
     * control.progress fires with the committed prefix shot count.
     */
    RunOutcome runSharded(const PreparedCircuit &prepared,
                          const ScheduledCircuit &sched, int shots,
                          uint64_t seed,
                          const RunControl &control = {}) const;

    ShardStats stats() const;

    /** Stop and reap every worker (idempotent; destructor calls
     *  it).  A later runSharded respawns the pool. */
    void shutdown();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace adapt::serve

#endif // ADAPT_SERVE_SHARD_EXECUTOR_HH
