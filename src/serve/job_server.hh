/**
 * @file
 * In-process, multi-tenant job server over NoisyMachine, hardened for
 * failure.
 *
 * `runBatch` fans independent jobs across one thread pool, but
 * nothing above it survives real traffic: no queue, no backpressure,
 * no cancellation, no deadline story.  JobServer is that layer — the
 * "ADAPT-as-a-service" first cut from the ROADMAP, with the network
 * front-end as a follow-on (the plumbing idioms — bounded pending
 * queues, dispatch loops, request/reply with timeout — follow the
 * NATS client's shape).
 *
 * Degradation semantics, in order of preference:
 *  - **reject**: admission control answers immediately — a full
 *    tenant queue, the tenant limit, an invalid spec, or an injected
 *    admission fault rejects with a reason; submit() never blocks.
 *  - **partial**: a deadline or cancel stops the job cooperatively at
 *    the next shot-block boundary and returns the histogram of the
 *    blocks completed so far, flagged partial.  Per-block RNG streams
 *    make that prefix bit-identical to an uninterrupted run's first
 *    shotsDone shots (exactly run(prepared, shotsDone, seed)).
 *  - **retry**: attempts that die with a retryable fault (transient
 *    failures, allocation failures) are retried with exponential
 *    backoff up to the job's retry budget; every attempt re-runs the
 *    same seed, so a retried job's output is bit-identical to an
 *    untroubled one.
 *
 * Lanes: submit() puts each job on one of two lanes, once.  A job
 * that will run sharded (the server has an available shard executor
 * and the spec carries its schedule) goes to the shard lane, whose
 * one thread waits on the worker processes; the executor runs one job
 * at a time anyway.  Every other job goes to the compute lane, whose
 * `workers` threads run it in-process, so a compute thread never
 * sleeps through a sharded run.  In-process concurrency stays
 * `workers × threadsPerJob`, plus one serial lease while the executor
 * runs a quarantined or degraded lease on the shard-lane thread.
 *
 * Fairness: tenants own bounded FIFO queues, one per lane (the
 * tenant's `queueDepth` counts both), and each lane picks its next
 * job by smooth weighted round-robin across the tenants with pending
 * work on that lane, so a flooding tenant cannot starve the others —
 * completion interleaving within a lane is bounded by the weight
 * ratio.
 *
 * Reproducibility: job outputs depend only on (prepared circuit,
 * shots, seed) — never on queueing order, worker count, retries, or
 * faults — and the fault schedule itself is deterministic
 * (serve/fault.hh), so every degradation path replays exactly.
 */

#ifndef ADAPT_SERVE_JOB_SERVER_HH
#define ADAPT_SERVE_JOB_SERVER_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "noise/machine.hh"
#include "serve/shard_executor.hh"

namespace adapt::serve
{

using JobId = uint64_t;

/**
 * Allocation-site key ordinals for FaultSite::AllocFailure (see
 * serve/fault.hh): the admission-time allocation of submission seq s
 * keys as faultKey(s, kAllocAdmitOrdinal) and run attempt a of job j
 * keys as faultKey(j, kAllocAttemptBase + a) — tests force exact
 * points with these.
 */
constexpr uint64_t kAllocAdmitOrdinal = 0;
constexpr uint64_t kAllocAttemptBase = 1;

/** Lifecycle of an accepted job.  Terminal states are Done,
 *  Cancelled, Expired, and Failed. */
enum class JobState : uint8_t
{
    Queued,    //!< accepted, waiting for a worker
    Running,   //!< executing (or backing off between attempts)
    Done,      //!< full histogram delivered
    Cancelled, //!< cancel() stopped it; partial histogram delivered
    Expired,   //!< deadline stopped it; partial histogram delivered
    Failed,    //!< retries exhausted or non-retryable error
};

/** One unit of work: a prepared circuit plus execution knobs.  Jobs
 *  run compiled, in-process or sharded. */
struct JobSpec
{
    PreparedCircuit prepared;
    int shots = 0;
    uint64_t seed = 1;

    /** End-to-end deadline measured from submission; 0 = use the
     *  server default (which may itself be "none"). */
    std::chrono::milliseconds timeout{0};

    /** Retry budget for retryable faults; -1 = server default. */
    int maxRetries = -1;

    /** The schedule @p prepared was prepared from.  Optional — but
     *  required for multi-process sharded execution (workers rebuild
     *  the job from it; see serve/shard_executor.hh).  With it, a
     *  server whose shard executor is available queues the job on
     *  its shard lane; jobs without it always run in-process on the
     *  compute workers. */
    std::shared_ptr<const ScheduledCircuit> sched;
};

/** Admission verdict: either an id to wait on, or a reason. */
struct Admission
{
    JobId id = 0;
    bool accepted = false;
    std::string reason;
};

/** Terminal outcome of a job (see the file comment for semantics). */
struct JobResult
{
    JobState state = JobState::Failed;
    Distribution dist;       //!< full, partial, or empty histogram
    int64_t shotsDone = 0;
    int shotsRequested = 0;
    bool partial = false;    //!< dist covers fewer shots than asked
    int attempts = 0;        //!< run attempts consumed (>= 1 if run)
    uint64_t finishSeq = 0;  //!< global completion order (from 1)
    std::string reason;      //!< failure / stop detail
};

/** Server-wide counters (monotonic since construction). */
struct ServerStats
{
    uint64_t submitted = 0;
    uint64_t accepted = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0; //!< terminal Done
    uint64_t cancelled = 0;
    uint64_t expired = 0;
    uint64_t failed = 0;
    uint64_t retried = 0;   //!< backoff-then-retry transitions
};

/** Per-tenant counters. */
struct TenantStats
{
    uint64_t submitted = 0;
    uint64_t accepted = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0; //!< any terminal state
};

/** Tuning; fromEnv() layers ADAPT_SERVER_* knobs over the defaults. */
struct ServerOptions
{
    /** Compute threads, which run in-process jobs only; sharded
     *  jobs wait on one shard-lane thread of their own. */
    int workers = 2;
    int queueDepth = 32;      //!< max queued jobs per tenant
    int maxTenants = 64;
    int threadsPerJob = 1;    //!< shot parallelism inside one job

    /** Default end-to-end deadline; 0 = none. */
    std::chrono::milliseconds defaultTimeout{0};

    int maxRetries = 2;
    std::chrono::milliseconds backoffBase{2};
    std::chrono::milliseconds backoffCap{1000};

    /** Construct with dispatch paused (tests / bulk preloading);
     *  start() releases the workers. */
    bool startPaused = false;

    /** Multi-process sharding (serve/shard_executor.hh).
     *  shard.workers == 0 (the default) keeps every job on the
     *  in-process path, untouched. */
    ShardOptions shard;

    /**
     * Defaults overlaid with the environment:
     *   ADAPT_SERVER_WORKERS      (int >= 1)
     *   ADAPT_SERVER_QUEUE_DEPTH  (int >= 1)
     *   ADAPT_SERVER_MAX_TENANTS  (int >= 1)
     *   ADAPT_SERVER_JOB_THREADS  (int >= 1)
     *   ADAPT_SERVER_TIMEOUT_MS   (int >= 0, 0 = none)
     *   ADAPT_SERVER_MAX_RETRIES  (int >= 0)
     *   ADAPT_SERVER_BACKOFF_MS   (int >= 1)
     * plus the ADAPT_SHARD_* knobs via ShardOptions::fromEnv().
     * Garbage values warn (common/env.hh) and keep the default.
     */
    static ServerOptions fromEnv();
};

/**
 * The server.  All methods are thread-safe; submit() and cancel()
 * never block on job execution.  Jobs are tracked until release() —
 * long-lived callers should release finished jobs they no longer
 * need.
 */
class JobServer
{
  public:
    /** Spawns opts.workers compute threads, plus the shard-lane
     *  thread when the shard executor is available (paused if
     *  asked).  @p machine must outlive the server. */
    explicit JobServer(const NoisyMachine &machine,
                       ServerOptions opts = ServerOptions::fromEnv());

    /** shutdown() and join. */
    ~JobServer();

    JobServer(const JobServer &) = delete;
    JobServer &operator=(const JobServer &) = delete;

    /**
     * Admission control: validate the spec, check the tenant limit
     * and the tenant's bounded queue, and either enqueue (returning
     * the job id) or reject with a reason — never block, never
     * throw.  @p weight sets the tenant's round-robin weight
     * (>= 1; the latest submission's value wins).
     */
    Admission submit(const std::string &tenant, JobSpec spec,
                     int weight = 1);

    /**
     * Request cancellation.  Queued jobs finalize immediately;
     * running jobs stop cooperatively at the next shot-block
     * checkpoint and deliver their partial histogram.  Returns false
     * for unknown or already-terminal jobs.
     */
    bool cancel(JobId id);

    /** Current state. @throws UsageError for unknown ids. */
    JobState state(JobId id) const;

    /** Live progress: shots committed so far (atomic snapshot). */
    int64_t shotsDone(JobId id) const;

    /** Block until terminal; returns the result (copy). */
    JobResult wait(JobId id);

    /** Release the pause set by ServerOptions::startPaused. */
    void start();

    /** Block until no job is queued or running.  (With a paused
     *  server this waits forever — start() first.) */
    void drain();

    /**
     * Stop accepting, cancel every queued and running job, and join
     * the workers.  Idempotent; the destructor calls it.
     */
    void shutdown();

    /** Drop a *terminal* job from the registry (frees its result).
     *  Returns false if unknown or not yet terminal. */
    bool release(JobId id);

    ServerStats stats() const;

    /** Counters for @p tenant (zeros for unknown tenants). */
    TenantStats tenantStats(const std::string &tenant) const;

    /** The shard executor, or nullptr when opts.shard.workers == 0.
     *  Exposes recovery stats and worker pids (kill-storm tests). */
    const ShardExecutor *sharder() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace adapt::serve

#endif // ADAPT_SERVE_JOB_SERVER_HH
