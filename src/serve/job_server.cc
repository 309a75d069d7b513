#include "serve/job_server.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"
#include "serve/fault.hh"

namespace adapt::serve
{

ServerOptions
ServerOptions::fromEnv()
{
    ServerOptions opts;
    opts.workers = static_cast<int>(
        envInt("ADAPT_SERVER_WORKERS", opts.workers, 1, 1024));
    opts.queueDepth = static_cast<int>(
        envInt("ADAPT_SERVER_QUEUE_DEPTH", opts.queueDepth, 1,
               1 << 20));
    opts.maxTenants = static_cast<int>(
        envInt("ADAPT_SERVER_MAX_TENANTS", opts.maxTenants, 1,
               1 << 20));
    opts.threadsPerJob = static_cast<int>(
        envInt("ADAPT_SERVER_JOB_THREADS", opts.threadsPerJob, 1,
               1024));
    opts.defaultTimeout = std::chrono::milliseconds(
        envInt("ADAPT_SERVER_TIMEOUT_MS", opts.defaultTimeout.count(),
               0, 86400000));
    opts.maxRetries = static_cast<int>(
        envInt("ADAPT_SERVER_MAX_RETRIES", opts.maxRetries, 0, 1000));
    opts.backoffBase = std::chrono::milliseconds(
        envInt("ADAPT_SERVER_BACKOFF_MS", opts.backoffBase.count(), 1,
               60000));
    opts.shard = ShardOptions::fromEnv();
    return opts;
}

namespace
{

/** Dispatch lanes.  The compute lane's `workers` threads run jobs
 *  in-process; the shard lane's one thread runs sharded jobs, which
 *  spend their run waiting on worker processes. */
constexpr size_t kComputeLane = 0;
constexpr size_t kShardLane = 1;
constexpr size_t kLanes = 2;

/** One tracked job.  Fields split by writer: the spec/deadline block
 *  is immutable after admission; the atomics are live progress for
 *  concurrent readers; pendState/pendReason/outcome are written by
 *  the single thread that retires the job and published by the
 *  finalize under the server mutex. */
struct Job
{
    JobId id = 0;
    int tenant = 0;
    size_t lane = kComputeLane; //!< decided once, at admission
    JobSpec spec;
    int maxRetries = 0;
    bool hasDeadline = false;
    std::chrono::steady_clock::time_point deadline{};
    CancellationSource cancel;

    std::atomic<JobState> state{JobState::Queued};
    std::atomic<int64_t> shotsDone{0};
    std::atomic<int> attempts{0};

    RunOutcome outcome;
    JobState pendState = JobState::Failed;
    std::string pendReason;

    JobResult result;
    bool finalized = false;
};

struct Tenant
{
    std::string name;
    int index = 0;
    int weight = 1;
    /** Per lane: round-robin credit and queued jobs. */
    std::array<int64_t, kLanes> credit{};
    std::array<std::deque<std::shared_ptr<Job>>, kLanes> queue;
    TenantStats stats;
};

bool
isTerminal(JobState s)
{
    return s == JobState::Done || s == JobState::Cancelled ||
           s == JobState::Expired || s == JobState::Failed;
}

} // namespace

struct JobServer::Impl
{
    const NoisyMachine &machine;
    const ServerOptions opts;

    mutable std::mutex mutex;
    std::condition_variable cvDone; //!< waiters: job finalized

    /** Per lane: the count of queued jobs, and the condition
     *  variable that wakes the lane's threads (new job / start /
     *  shutdown).  With one shared condition variable, a submit's
     *  notify_one could wake the other lane's thread instead. */
    std::array<int, kLanes> queued{};
    std::array<std::condition_variable, kLanes> cvWork;

    std::vector<std::unique_ptr<Tenant>> tenants; // creation order
    std::map<std::string, int> tenantIndex;
    std::map<JobId, std::shared_ptr<Job>> jobs;

    uint64_t submitSeq = 0;
    JobId nextId = 1;
    uint64_t finishSeq = 0;
    int running = 0;
    bool paused = false;
    bool accepting = true;
    bool joined = false;
    std::atomic<bool> stopFlag{false};

    ServerStats stats;
    std::atomic<uint64_t> retried{0};

    std::vector<std::thread> workers; //!< compute lane, then shard

    /** Multi-process sharding; nullptr when opts.shard.workers == 0
     *  (jobs run in-process exactly as before). */
    std::unique_ptr<ShardExecutor> sharder;

    explicit Impl(const NoisyMachine &m, ServerOptions o)
        : machine(m), opts(std::move(o))
    {
        if (opts.shard.workers > 0) {
            sharder =
                std::make_unique<ShardExecutor>(machine, opts.shard);
        }
    }

    /** True when the shard lane runs: an executor with a resolved
     *  worker binary. */
    bool sharding() const
    {
        return sharder != nullptr && sharder->available();
    }

    Tenant *findTenant(const std::string &name)
    {
        const auto it = tenantIndex.find(name);
        return it == tenantIndex.end() ? nullptr
                                       : tenants[it->second].get();
    }

    /** Smooth weighted round-robin over the tenants with pending
     *  work on @p lane: every candidate earns its weight in credit,
     *  the richest (ties: creation order) pays the round's total and
     *  dispatches.  Idle tenants earn nothing, so a returning tenant
     *  gets its fair share without a catch-up burst. */
    std::shared_ptr<Job> popNextJobLocked(size_t lane)
    {
        int64_t total = 0;
        Tenant *best = nullptr;
        for (const std::unique_ptr<Tenant> &t : tenants) {
            if (t->queue[lane].empty())
                continue;
            total += t->weight;
            t->credit[lane] += t->weight;
            if (best == nullptr || t->credit[lane] > best->credit[lane])
                best = t.get();
        }
        if (best == nullptr)
            return nullptr;
        best->credit[lane] -= total;
        std::shared_ptr<Job> job = std::move(best->queue[lane].front());
        best->queue[lane].pop_front();
        --queued[lane];
        return job;
    }

    void finalizeLocked(Job &job)
    {
        if (job.finalized)
            return;
        job.finalized = true;
        job.result.state = job.pendState;
        job.result.dist = std::move(job.outcome.dist);
        job.result.shotsDone = job.outcome.shotsDone;
        job.result.shotsRequested = job.spec.shots;
        job.result.partial = job.pendState != JobState::Done;
        job.result.attempts =
            job.attempts.load(std::memory_order_relaxed);
        job.result.reason = job.pendReason;
        job.result.finishSeq = ++finishSeq;
        switch (job.pendState) {
          case JobState::Done:
            ++stats.completed;
            break;
          case JobState::Cancelled:
            ++stats.cancelled;
            break;
          case JobState::Expired:
            ++stats.expired;
            break;
          default:
            ++stats.failed;
            break;
        }
        ++tenants[static_cast<size_t>(job.tenant)]->stats.completed;
        job.shotsDone.store(job.result.shotsDone,
                            std::memory_order_relaxed);
        job.state.store(job.pendState, std::memory_order_release);
        cvDone.notify_all();
    }

    /** Execute one job to a terminal pendState (no lock held).  The
     *  attempt loop retries retryable faults with exponential backoff;
     *  cancel/deadline/shutdown interrupt both the run (cooperative
     *  token) and the backoff sleep (1 ms poll). */
    void runJob(const std::shared_ptr<Job> &jobPtr)
    {
        Job &job = *jobPtr;
        FaultInjector &faults = FaultInjector::global();
        for (int attempt = 0;; ++attempt) {
            job.attempts.store(attempt + 1,
                               std::memory_order_relaxed);
            CancellationToken token = job.cancel.token();
            if (job.hasDeadline)
                token = token.withDeadline(job.deadline);
            const StopCause pre = token.cause();
            if (pre != StopCause::None) {
                job.pendState = pre == StopCause::Deadline
                                    ? JobState::Expired
                                    : JobState::Cancelled;
                job.pendReason = pre == StopCause::Deadline
                                     ? "deadline expired"
                                     : "cancelled";
                return;
            }
            std::string faultMsg;
            try {
                faults.maybeFailAlloc(faultKey(
                    job.id,
                    kAllocAttemptBase + static_cast<uint64_t>(attempt)));
                faults.maybeFailJob(
                    faultKey(job.id, static_cast<uint64_t>(attempt)));
                RunControl ctl;
                ctl.token = token;
                uint64_t wave = 0;
                ctl.progress = [&job, &faults,
                                &wave](int64_t shotsDone) {
                    job.shotsDone.store(shotsDone,
                                        std::memory_order_relaxed);
                    faults.maybeStall(faultKey(job.id, wave++));
                };
                RunOutcome out =
                    job.lane == kShardLane
                        ? sharder->runSharded(
                              job.spec.prepared, *job.spec.sched,
                              job.spec.shots, job.spec.seed, ctl)
                        : machine.runPartial(
                              job.spec.prepared, job.spec.shots,
                              job.spec.seed, opts.threadsPerJob, ctl);
                job.outcome = std::move(out);
                if (!job.outcome.partial) {
                    job.pendState = JobState::Done;
                    return;
                }
                job.pendState =
                    job.outcome.cause == StopCause::Deadline
                        ? JobState::Expired
                        : JobState::Cancelled;
                job.pendReason =
                    job.outcome.cause == StopCause::Deadline
                        ? "deadline expired mid-run"
                        : "cancelled mid-run";
                return;
            } catch (const TransientFault &e) {
                faultMsg = e.what();
            } catch (const std::bad_alloc &) {
                faultMsg = "allocation failure";
            } catch (const std::exception &e) {
                job.pendState = JobState::Failed;
                job.pendReason = e.what();
                return;
            }
            if (attempt >= job.maxRetries) {
                job.pendState = JobState::Failed;
                job.pendReason = "retries exhausted after " +
                                 std::to_string(attempt + 1) +
                                 " attempts: " + faultMsg;
                return;
            }
            retried.fetch_add(1, std::memory_order_relaxed);
            std::chrono::milliseconds delay =
                opts.backoffBase * (1LL << std::min(attempt, 16));
            delay = std::min(delay, opts.backoffCap);
            const auto until =
                std::chrono::steady_clock::now() + delay;
            for (;;) {
                if (stopFlag.load(std::memory_order_acquire) ||
                    token.stopRequested()) {
                    break;
                }
                const auto now = std::chrono::steady_clock::now();
                if (now >= until)
                    break;
                std::this_thread::sleep_for(
                    std::min<std::chrono::steady_clock::duration>(
                        std::chrono::milliseconds(1), until - now));
            }
            if (stopFlag.load(std::memory_order_acquire)) {
                job.pendState = JobState::Cancelled;
                job.pendReason = "server shutdown";
                return;
            }
            // Cancel/deadline during backoff: the re-check at the top
            // of the loop turns it into the terminal state.
        }
    }

    void workerLoop(size_t lane)
    {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            cvWork[lane].wait(lock, [&] {
                return stopFlag.load(std::memory_order_relaxed) ||
                       (!paused && queued[lane] > 0);
            });
            if (stopFlag.load(std::memory_order_relaxed))
                return;
            std::shared_ptr<Job> job = popNextJobLocked(lane);
            if (job == nullptr)
                continue;
            job->state.store(JobState::Running,
                             std::memory_order_release);
            ++running;
            lock.unlock();
            runJob(job);
            lock.lock();
            --running;
            finalizeLocked(*job);
        }
    }
};

JobServer::JobServer(const NoisyMachine &machine, ServerOptions opts)
{
    // Operators key a fault schedule into the process via the
    // environment; without ADAPT_FAULT_SEED any programmatic
    // configure() installed by a test harness is left untouched.
    if (envPresent("ADAPT_FAULT_SEED"))
        FaultInjector::global().loadEnv();
    // Programmatic options bypass fromEnv()'s range checks; a zero or
    // negative pool, queue or tenant limit would deadlock submitters
    // or reject every job, so fall back to the documented defaults
    // instead of silently reinterpreting the value.
    if (opts.workers <= 0) {
        warnOnce("server-workers-invalid",
                 "ServerOptions.workers=" +
                     std::to_string(opts.workers) +
                     " invalid (must be >= 1); using default " +
                     std::to_string(ServerOptions{}.workers));
        opts.workers = ServerOptions{}.workers;
    }
    if (opts.queueDepth <= 0) {
        warnOnce("server-queue-depth-invalid",
                 "ServerOptions.queueDepth=" +
                     std::to_string(opts.queueDepth) +
                     " invalid (must be >= 1); using default " +
                     std::to_string(ServerOptions{}.queueDepth));
        opts.queueDepth = ServerOptions{}.queueDepth;
    }
    if (opts.maxTenants <= 0) {
        warnOnce("server-max-tenants-invalid",
                 "ServerOptions.maxTenants=" +
                     std::to_string(opts.maxTenants) +
                     " invalid (must be >= 1); using default " +
                     std::to_string(ServerOptions{}.maxTenants));
        opts.maxTenants = ServerOptions{}.maxTenants;
    }
    impl_ = std::make_unique<Impl>(machine, std::move(opts));
    impl_->paused = impl_->opts.startPaused;
    for (int i = 0; i < impl_->opts.workers; ++i) {
        impl_->workers.emplace_back(
            [this] { impl_->workerLoop(kComputeLane); });
    }
    if (impl_->sharding()) {
        impl_->workers.emplace_back(
            [this] { impl_->workerLoop(kShardLane); });
    }
}

JobServer::~JobServer()
{
    shutdown();
}

Admission
JobServer::submit(const std::string &tenant, JobSpec spec, int weight)
{
    FaultInjector &faults = FaultInjector::global();
    std::lock_guard<std::mutex> lock(impl_->mutex);
    const uint64_t seq = ++impl_->submitSeq;
    ++impl_->stats.submitted;
    Tenant *t = impl_->findTenant(tenant);
    if (t != nullptr)
        ++t->stats.submitted;
    const auto reject = [&](const std::string &why) {
        ++impl_->stats.rejected;
        if (t != nullptr)
            ++t->stats.rejected;
        return Admission{0, false, why};
    };
    if (!impl_->accepting)
        return reject("server is shutting down");
    if (tenant.empty())
        return reject("invalid job: tenant name is empty");
    if (!spec.prepared.valid())
        return reject("invalid job: PreparedCircuit is empty");
    if (spec.shots <= 0) {
        return reject("invalid job: shots must be >= 1 (got " +
                      std::to_string(spec.shots) + ")");
    }
    if (faults.maybeRejectAdmission(seq))
        return reject("queue full (injected admission storm)");
    if (t == nullptr) {
        if (static_cast<int>(impl_->tenants.size()) >=
            impl_->opts.maxTenants) {
            return reject(
                "tenant limit reached (" +
                std::to_string(impl_->opts.maxTenants) + ")");
        }
        auto fresh = std::make_unique<Tenant>();
        fresh->name = tenant;
        fresh->index = static_cast<int>(impl_->tenants.size());
        t = fresh.get();
        impl_->tenantIndex.emplace(tenant, fresh->index);
        impl_->tenants.push_back(std::move(fresh));
        ++t->stats.submitted;
    }
    t->weight = std::max(1, weight);
    if (t->queue[kComputeLane].size() + t->queue[kShardLane].size() >=
        static_cast<size_t>(impl_->opts.queueDepth)) {
        return reject("queue full for tenant \"" + tenant +
                      "\" (depth " +
                      std::to_string(impl_->opts.queueDepth) + ")");
    }
    std::shared_ptr<Job> job;
    try {
        faults.maybeFailAlloc(faultKey(seq, kAllocAdmitOrdinal));
        job = std::make_shared<Job>();
    } catch (const std::bad_alloc &) {
        return reject("allocation failure at admission");
    }
    job->id = impl_->nextId++;
    job->tenant = t->index;
    job->spec = std::move(spec);
    // Sharded dispatch needs the schedule (workers rebuild the job
    // from it); the merged histogram is bit-identical to the
    // in-process path either way.
    job->lane = impl_->sharding() && job->spec.sched != nullptr
                    ? kShardLane
                    : kComputeLane;
    job->maxRetries = job->spec.maxRetries >= 0
                          ? job->spec.maxRetries
                          : impl_->opts.maxRetries;
    const std::chrono::milliseconds timeout =
        job->spec.timeout.count() > 0 ? job->spec.timeout
                                      : impl_->opts.defaultTimeout;
    if (timeout.count() > 0) {
        job->hasDeadline = true;
        job->deadline = std::chrono::steady_clock::now() + timeout;
    }
    const JobId id = job->id;
    const size_t lane = job->lane;
    t->queue[lane].push_back(job);
    impl_->jobs.emplace(id, std::move(job));
    ++impl_->queued[lane];
    ++impl_->stats.accepted;
    ++t->stats.accepted;
    impl_->cvWork[lane].notify_one();
    return Admission{id, true, {}};
}

bool
JobServer::cancel(JobId id)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    const auto it = impl_->jobs.find(id);
    if (it == impl_->jobs.end())
        return false;
    Job &job = *it->second;
    const JobState s = job.state.load(std::memory_order_acquire);
    if (isTerminal(s))
        return false;
    job.cancel.cancel();
    if (s == JobState::Queued) {
        std::deque<std::shared_ptr<Job>> &queue =
            impl_->tenants[static_cast<size_t>(job.tenant)]
                ->queue[job.lane];
        const auto qit = std::find_if(
            queue.begin(), queue.end(),
            [&](const std::shared_ptr<Job> &q) { return q->id == id; });
        if (qit != queue.end()) {
            queue.erase(qit);
            --impl_->queued[job.lane];
        }
        job.pendState = JobState::Cancelled;
        job.pendReason = "cancelled while queued";
        impl_->finalizeLocked(job);
    }
    return true;
}

JobState
JobServer::state(JobId id) const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    const auto it = impl_->jobs.find(id);
    if (it == impl_->jobs.end())
        fatal("unknown job id " + std::to_string(id));
    return it->second->state.load(std::memory_order_acquire);
}

int64_t
JobServer::shotsDone(JobId id) const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    const auto it = impl_->jobs.find(id);
    if (it == impl_->jobs.end())
        fatal("unknown job id " + std::to_string(id));
    return it->second->shotsDone.load(std::memory_order_relaxed);
}

JobResult
JobServer::wait(JobId id)
{
    std::unique_lock<std::mutex> lock(impl_->mutex);
    const auto it = impl_->jobs.find(id);
    if (it == impl_->jobs.end())
        fatal("unknown job id " + std::to_string(id));
    const std::shared_ptr<Job> job = it->second;
    impl_->cvDone.wait(lock, [&] { return job->finalized; });
    return job->result;
}

void
JobServer::start()
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (!impl_->paused)
        return;
    impl_->paused = false;
    for (std::condition_variable &cv : impl_->cvWork)
        cv.notify_all();
}

void
JobServer::drain()
{
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->cvDone.wait(lock, [&] {
        return impl_->running == 0 &&
               impl_->queued[kComputeLane] == 0 &&
               impl_->queued[kShardLane] == 0;
    });
}

void
JobServer::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->accepting = false;
        for (const std::unique_ptr<Tenant> &t : impl_->tenants) {
            for (size_t lane = 0; lane < kLanes; ++lane) {
                for (const std::shared_ptr<Job> &job : t->queue[lane]) {
                    job->cancel.cancel();
                    job->pendState = JobState::Cancelled;
                    job->pendReason = "server shutdown";
                    impl_->finalizeLocked(*job);
                }
                impl_->queued[lane] -=
                    static_cast<int>(t->queue[lane].size());
                t->queue[lane].clear();
            }
        }
        for (const auto &[id, job] : impl_->jobs) {
            if (!job->finalized)
                job->cancel.cancel();
        }
        impl_->stopFlag.store(true, std::memory_order_release);
        for (std::condition_variable &cv : impl_->cvWork)
            cv.notify_all();
    }
    if (!impl_->joined) {
        for (std::thread &worker : impl_->workers) {
            if (worker.joinable())
                worker.join();
        }
        impl_->joined = true;
    }
}

bool
JobServer::release(JobId id)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    const auto it = impl_->jobs.find(id);
    if (it == impl_->jobs.end() || !it->second->finalized)
        return false;
    impl_->jobs.erase(it);
    return true;
}

ServerStats
JobServer::stats() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    ServerStats out = impl_->stats;
    out.retried = impl_->retried.load(std::memory_order_relaxed);
    return out;
}

TenantStats
JobServer::tenantStats(const std::string &tenant) const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    const auto it = impl_->tenantIndex.find(tenant);
    if (it == impl_->tenantIndex.end())
        return TenantStats{};
    return impl_->tenants[static_cast<size_t>(it->second)]->stats;
}

const ShardExecutor *
JobServer::sharder() const
{
    return impl_->sharder.get();
}

} // namespace adapt::serve
