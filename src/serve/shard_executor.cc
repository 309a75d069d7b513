#include "serve/shard_executor.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/logging.hh"
#include "device/runcard.hh"
#include "serve/fault.hh"
#include "serve/wire.hh"

namespace adapt::serve
{

ShardOptions
ShardOptions::fromEnv()
{
    ShardOptions opts;
    opts.workers = static_cast<int>(
        envInt("ADAPT_SHARD_WORKERS", opts.workers, 0, 256));
    opts.leaseBlocks = envInt("ADAPT_SHARD_LEASE_BLOCKS",
                              opts.leaseBlocks, 1, 1 << 20);
    opts.heartbeatMs = static_cast<int>(
        envInt("ADAPT_SHARD_HEARTBEAT_MS", opts.heartbeatMs, 10,
               600000));
    opts.maxLeaseAttempts = static_cast<int>(
        envInt("ADAPT_SHARD_MAX_ATTEMPTS", opts.maxLeaseAttempts, 1,
               100));
    opts.maxRestarts = static_cast<int>(
        envInt("ADAPT_SHARD_MAX_RESTARTS", opts.maxRestarts, 0, 10000));
    if (const char *bin = envText("ADAPT_SHARD_WORKER_BIN"))
        opts.workerBinary = bin;
    return opts;
}

namespace
{

using Clock = std::chrono::steady_clock;
using Items = std::vector<std::pair<uint64_t, uint64_t>>;

/**
 * Programmatic options bypass fromEnv()'s range checks: a lease of
 * no blocks never advances runSharded's lease loop, a negative restart
 * budget wraps the unsigned spawn budget, a heartbeat under the knob's
 * 10 ms floor kills busy workers as hung, and no attempts quarantines
 * every lease.  Each such value warns once and takes the default, as
 * ServerOptions do.
 */
ShardOptions
checkedOptions(ShardOptions opts)
{
    const ShardOptions defaults;
    const auto floorOr = [](auto &value, auto floor, auto fallback,
                            const char *name) {
        if (value >= floor)
            return;
        warnOnce(std::string("shard-") + name + "-invalid",
                 std::string("ShardOptions.") + name + "=" +
                     std::to_string(value) + " invalid (must be >= " +
                     std::to_string(floor) + "); using default " +
                     std::to_string(fallback));
        value = fallback;
    };
    floorOr(opts.leaseBlocks, 1, defaults.leaseBlocks, "leaseBlocks");
    floorOr(opts.heartbeatMs, 10, defaults.heartbeatMs, "heartbeatMs");
    floorOr(opts.maxLeaseAttempts, 1, defaults.maxLeaseAttempts,
            "maxLeaseAttempts");
    floorOr(opts.maxRestarts, 0, defaults.maxRestarts, "maxRestarts");
    return opts;
}

/** Resolve the worker binary: explicit option, then the env knob,
 *  then `adapt_shard_worker` next to (or up to two directories
 *  above) the running executable — which covers tests running from
 *  build/tests and benches from build/bench with the worker at the
 *  build root. */
std::string
resolveWorkerBinary(const std::string &configured)
{
    const auto usable = [](const std::string &path) {
        return !path.empty() && ::access(path.c_str(), X_OK) == 0;
    };
    if (!configured.empty())
        return usable(configured) ? configured : std::string();
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        return {};
    buf[n] = '\0';
    std::string dir(buf);
    const size_t slash = dir.rfind('/');
    dir = slash == std::string::npos ? std::string(".")
                                     : dir.substr(0, slash);
    for (const char *rel :
         {"/adapt_shard_worker", "/../adapt_shard_worker",
          "/../../adapt_shard_worker"}) {
        const std::string cand = dir + rel;
        if (usable(cand))
            return cand;
    }
    return {};
}

/** One live worker process (a slot in the pool). */
struct WorkerProc
{
    uint64_t incarnation = 0; //!< unique across respawns
    int ordinal = 0;          //!< pool slot
    pid_t pid = -1;
    int fd = -1;
    std::thread reader;
    Clock::time_point lastBeat;
    bool sawFrame = false; //!< false until the post-exec hello lands
    int leaseIndex = -1;   //!< outstanding lease, -1 when idle
    uint64_t submittedJobKey = 0; //!< job the worker currently holds
};

/** Reader-thread output: one frame, or the stream's end. */
struct PendingEvent
{
    enum Kind
    {
        FrameArrived,
        Eof,
        Corrupt,
    };
    uint64_t incarnation = 0;
    Kind kind = FrameArrived;
    wire::Frame frame;
    std::string error;
};

/** One unit of reassignable work: blocks [blockLo, blockHi) of the
 *  job.  Its index in ShardJob::leases is its wire ordinal and fault
 *  key. */
struct LeaseWork
{
    int64_t blockLo = 0;
    int64_t blockHi = 0;
    int64_t leaseShots = 0;

    enum State
    {
        Pending,
        Running,
        Done,
    };
    State state = Pending;
    uint32_t attempts = 0; //!< grants so far (wire attempt = attempts-1)
    Items items;
};

/** The one job a lease table serves: what its leases share, and the
 *  contiguous prefix of completed leases. */
struct ShardJob
{
    uint64_t key = 0;
    std::vector<uint8_t> submit; //!< SUBMIT payload replicating the job

    /** In-process execution inputs (quarantine/degrade). */
    PreparedCircuit prepared;
    int shots = 0;
    uint64_t seed = 1;

    std::vector<LeaseWork> leases;
    size_t prefix = 0;       //!< leases [0, prefix) are Done
    int64_t prefixShots = 0; //!< shots those leases cover
};

} // namespace

struct ShardExecutor::Impl
{
    const NoisyMachine &machine;
    const ShardOptions opts;
    const std::string binary;

    /** Serializes sharded jobs: one lease table in flight. */
    std::mutex jobMutex;

    /** Guards workers / events / stats; readers push under it. */
    mutable std::mutex mutex;
    std::condition_variable cv;
    std::deque<PendingEvent> events;
    std::vector<std::unique_ptr<WorkerProc>> slots;
    uint64_t nextIncarnation = 1;
    uint64_t spawnOrdinal = 0; //!< ExecFailure fault key + budget
    uint64_t nextJobKey = 1;
    ShardStats stats;

    Impl(const NoisyMachine &m, ShardOptions o)
        : machine(m), opts(std::move(o)),
          binary(opts.workers > 0
                     ? resolveWorkerBinary(opts.workerBinary)
                     : std::string())
    {
        slots.resize(static_cast<size_t>(std::max(0, opts.workers)));
    }

    bool available() const
    {
        return opts.workers > 0 && !binary.empty();
    }

    /** Reader thread: one per worker; turns the stream into events.
     *  Exits on EOF or the first framing/CRC violation. */
    void readLoop(uint64_t incarnation, int fd)
    {
        const auto push = [&](PendingEvent ev) {
            std::lock_guard<std::mutex> lock(mutex);
            events.push_back(std::move(ev));
            cv.notify_all();
        };
        try {
            wire::Frame frame;
            while (wire::readFrame(fd, frame)) {
                PendingEvent ev;
                ev.incarnation = incarnation;
                ev.kind = PendingEvent::FrameArrived;
                ev.frame = std::move(frame);
                push(std::move(ev));
                frame = wire::Frame{};
            }
            push({incarnation, PendingEvent::Eof, {}, {}});
        } catch (const wire::WireError &e) {
            push({incarnation, PendingEvent::Corrupt, {}, e.what()});
        }
    }

    /** Spawn a worker into @p slot.  The injected ExecFailure site
     *  fires here, keyed by the spawn ordinal (a pure pre-fork
     *  decision, so spawn outcomes replay at any pool size).  Counts
     *  against the spawn budget either way. */
    bool spawnWorkerLocked(int slot)
    {
        const uint64_t ordinal = spawnOrdinal++;
        if (FaultInjector::global().fires(FaultSite::ExecFailure,
                                          ordinal)) {
            ++stats.execFailures;
            return false;
        }
        int sv[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) !=
            0) {
            ++stats.execFailures;
            return false;
        }
        // argv built before fork: nothing between fork and exec but
        // async-signal-safe calls (dup2/execv/_exit) — required in a
        // multithreaded parent.
        const std::string arg_fd = "--fd=3";
        const std::string arg_worker =
            "--worker=" + std::to_string(slot);
        char *argv[4] = {const_cast<char *>(binary.c_str()),
                         const_cast<char *>(arg_fd.c_str()),
                         const_cast<char *>(arg_worker.c_str()),
                         nullptr};
        const pid_t pid = ::fork();
        if (pid < 0) {
            ::close(sv[0]);
            ::close(sv[1]);
            ++stats.execFailures;
            return false;
        }
        if (pid == 0) {
            // Child.  dup2 onto fd 3 clears CLOEXEC for the worker's
            // end; everything else closes at exec.
            ::dup2(sv[1], 3);
            ::execv(binary.c_str(), argv);
            ::_exit(127);
        }
        ::close(sv[1]);
        auto w = std::make_unique<WorkerProc>();
        w->incarnation = nextIncarnation++;
        w->ordinal = slot;
        w->pid = pid;
        w->fd = sv[0];
        w->lastBeat = Clock::now();
        const uint64_t inc = w->incarnation;
        const int fd = w->fd;
        w->reader = std::thread([this, inc, fd] { readLoop(inc, fd); });
        slots[static_cast<size_t>(slot)] = std::move(w);
        ++stats.workersSpawned;
        if (ordinal >= static_cast<uint64_t>(opts.workers))
            ++stats.workersRestarted;
        return true;
    }

    /** Spawn budget: the initial pool plus maxRestarts replacements
     *  (failed spawn attempts consume budget too — a permanently
     *  broken binary must not loop forever). */
    bool canSpawnLocked() const
    {
        return spawnOrdinal < static_cast<uint64_t>(opts.workers) +
                                  static_cast<uint64_t>(
                                      opts.maxRestarts);
    }

    WorkerProc *findWorkerLocked(uint64_t incarnation)
    {
        for (const std::unique_ptr<WorkerProc> &w : slots) {
            if (w != nullptr && w->incarnation == incarnation)
                return w.get();
        }
        return nullptr;
    }

    /**
     * Remove a worker from its slot and reap it.  Drops the lock
     * around the reader join (the reader takes the same mutex to
     * push events) and the waitpid.  @p forceKill SIGKILLs first —
     * used for stalls and corrupt streams; crashed workers are
     * already gone.
     */
    void retireWorker(std::unique_lock<std::mutex> &lock, int slot,
                      bool forceKill)
    {
        std::unique_ptr<WorkerProc> w =
            std::move(slots[static_cast<size_t>(slot)]);
        if (w == nullptr)
            return;
        lock.unlock();
        if (forceKill && w->pid > 0)
            ::kill(w->pid, SIGKILL);
        // Wake the reader (EOF) without racing fd reuse; close only
        // after the join.
        ::shutdown(w->fd, SHUT_RDWR);
        if (w->reader.joinable())
            w->reader.join();
        ::close(w->fd);
        if (w->pid > 0) {
            int status = 0;
            ::waitpid(w->pid, &status, 0);
        }
        lock.lock();
    }

    /** Record a failure-detection event for the metrics. */
    void recordDetectionLocked(const WorkerProc &w)
    {
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      w.lastBeat)
                .count();
        stats.detectionLatencyMsTotal += ms;
        ++stats.detections;
    }

    /** Put a running worker's lease back on the pending list. */
    void releaseLeaseLocked(WorkerProc &w, ShardJob &job)
    {
        if (w.leaseIndex < 0)
            return;
        LeaseWork &lease = job.leases[static_cast<size_t>(w.leaseIndex)];
        if (lease.state == LeaseWork::Running) {
            lease.state = LeaseWork::Pending;
            ++stats.leasesReassigned;
        }
        w.leaseIndex = -1;
    }

    /** Send SUBMIT (if this worker doesn't hold the job yet) and the
     *  LEASE.  Returns false when the write fails — the caller
     *  retires the worker. */
    bool grantLease(WorkerProc &w, const ShardJob &job, int index)
    {
        const LeaseWork &lease = job.leases[static_cast<size_t>(index)];
        try {
            if (w.submittedJobKey != job.key) {
                wire::writeFrame(w.fd, wire::FrameType::Submit,
                                 job.submit);
                w.submittedJobKey = job.key;
            }
            wire::LeaseMsg msg;
            msg.jobKey = job.key;
            msg.lease = static_cast<uint64_t>(index);
            msg.attempt = lease.attempts - 1;
            msg.blockLo = lease.blockLo;
            msg.blockHi = lease.blockHi;
            wire::writeFrame(w.fd, wire::FrameType::Lease,
                             wire::encodeLease(msg));
            return true;
        } catch (const wire::WireError &) {
            return false;
        }
    }

    /**
     * Drive @p job's leases to completion (the orchestrator loop:
     * drain events, watch heartbeats, quarantine repeat offenders,
     * respawn and grant).  Runs on the caller's thread; returns false
     * when @p control stopped the job first (completed leases keep
     * their items).  control.progress fires — with the lock dropped —
     * whenever the completed-lease prefix grows, with the shots it
     * covers, so a stopped job's histogram is exactly an uninterrupted
     * run's first shotsDone shots.
     */
    bool runLeases(ShardJob &job, const RunControl &control)
    {
        std::vector<LeaseWork> &leases = job.leases;
        std::unique_lock<std::mutex> lock(mutex);
        ++stats.jobsSharded;
        bool degraded = false;
        size_t done = 0;
        // Leases are only mutated by this (the orchestrating) thread,
        // so the prefix needs no lock.
        const auto finishLease = [&](LeaseWork &lease, Items items) {
            lease.items = std::move(items);
            lease.state = LeaseWork::Done;
            ++done;
            const size_t before = job.prefix;
            while (job.prefix < leases.size() &&
                   leases[job.prefix].state == LeaseWork::Done) {
                job.prefixShots += leases[job.prefix].leaseShots;
                ++job.prefix;
            }
            if (job.prefix != before && control.progress) {
                lock.unlock();
                control.progress(job.prefixShots);
                lock.lock();
            }
        };
        // Bit-identical in-process execution (quarantine/degrade).
        const auto runInProcess = [&](LeaseWork &lease) {
            lock.unlock();
            Items items =
                machine.runShardRange(job.prepared, job.shots,
                                      lease.blockLo, lease.blockHi,
                                      job.seed);
            lock.lock();
            finishLease(lease, std::move(items));
        };

        while (done < leases.size()) {
            if (control.token.cause() != StopCause::None) {
                // Stop granting; leave in-flight workers to finish
                // their (now orphaned) leases — their RESULTs carry a
                // stale lease index and are discarded.
                for (const std::unique_ptr<WorkerProc> &w : slots) {
                    if (w != nullptr)
                        w->leaseIndex = -1;
                }
                if (degraded)
                    ++stats.jobsDegraded;
                return false;
            }

            // 1. Drain reader events.
            while (!events.empty()) {
                PendingEvent ev = std::move(events.front());
                events.pop_front();
                WorkerProc *w = findWorkerLocked(ev.incarnation);
                if (w == nullptr)
                    continue; // stale: worker already retired
                if (ev.kind == PendingEvent::FrameArrived) {
                    w->lastBeat = Clock::now();
                    w->sawFrame = true;
                    try {
                        handleFrameLocked(*w, ev.frame, job,
                                          finishLease);
                    } catch (const wire::WireError &) {
                        // Undecodable payload: same trust loss as a
                        // CRC failure.
                        ++stats.corruptFrames;
                        recordDetectionLocked(*w);
                        releaseLeaseLocked(*w, job);
                        retireWorker(lock, w->ordinal, true);
                    }
                    continue;
                }
                // EOF or corrupt stream: the worker is gone (or no
                // longer trustworthy).
                if (ev.kind == PendingEvent::Corrupt) {
                    ++stats.corruptFrames;
                } else if (!w->sawFrame) {
                    // Died before the post-exec hello: the exec
                    // itself failed (bad binary, _exit(127)).
                    ++stats.execFailures;
                } else {
                    ++stats.workersCrashed;
                }
                recordDetectionLocked(*w);
                releaseLeaseLocked(*w, job);
                retireWorker(lock, w->ordinal,
                             ev.kind == PendingEvent::Corrupt);
            }

            // 2. Heartbeat watchdog: a busy worker silent past the
            // deadline is hung — kill it and reassign.
            const auto now = Clock::now();
            for (size_t i = 0; i < slots.size(); ++i) {
                WorkerProc *w = slots[i].get();
                if (w == nullptr || w->leaseIndex < 0)
                    continue;
                const auto silent =
                    std::chrono::duration_cast<
                        std::chrono::milliseconds>(now - w->lastBeat)
                        .count();
                if (silent <= opts.heartbeatMs)
                    continue;
                ++stats.workersStalled;
                recordDetectionLocked(*w);
                releaseLeaseLocked(*w, job);
                retireWorker(lock, static_cast<int>(i), true);
            }

            // 3. Quarantine leases that burned their attempt budget:
            // execute them in-process (bit-identical) instead of
            // handing them to yet another worker.
            for (LeaseWork &lease : leases) {
                if (lease.state != LeaseWork::Pending ||
                    lease.attempts <
                        static_cast<uint32_t>(opts.maxLeaseAttempts))
                    continue;
                ++stats.leasesQuarantined;
                degraded = true;
                runInProcess(lease);
            }

            // 4. Keep the pool at strength while work remains.
            size_t pending = 0;
            for (const LeaseWork &lease : leases)
                pending += lease.state == LeaseWork::Pending;
            if (pending > 0) {
                size_t live = 0;
                for (const std::unique_ptr<WorkerProc> &w : slots)
                    live += w != nullptr;
                while (live < slots.size() && live < pending + 0u &&
                       canSpawnLocked()) {
                    int free_slot = -1;
                    for (size_t i = 0; i < slots.size(); ++i) {
                        if (slots[i] == nullptr) {
                            free_slot = static_cast<int>(i);
                            break;
                        }
                    }
                    if (free_slot < 0)
                        break;
                    if (spawnWorkerLocked(free_slot))
                        ++live;
                }
                if (live == 0 && !canSpawnLocked()) {
                    // Graceful degradation: nothing left to delegate
                    // to — finish every pending lease in-process.
                    warnOnce("shard-degrade",
                             "shard executor: no workers available; "
                             "finishing job in-process");
                    degraded = true;
                    for (LeaseWork &lease : leases) {
                        if (lease.state != LeaseWork::Pending)
                            continue;
                        ++stats.leasesInProcess;
                        runInProcess(lease);
                    }
                    continue;
                }
            }

            // 5. Grant pending leases to idle workers (lowest lease
            // index first — completion prefixes grow fastest).
            for (const std::unique_ptr<WorkerProc> &slot : slots) {
                WorkerProc *w = slot.get();
                if (w == nullptr || w->leaseIndex >= 0)
                    continue;
                int next = -1;
                for (size_t i = 0; i < leases.size(); ++i) {
                    if (leases[i].state == LeaseWork::Pending &&
                        leases[i].attempts < static_cast<uint32_t>(
                                                 opts.maxLeaseAttempts)) {
                        next = static_cast<int>(i);
                        break;
                    }
                }
                if (next < 0)
                    break;
                LeaseWork &lease = leases[static_cast<size_t>(next)];
                ++lease.attempts;
                lease.state = LeaseWork::Running;
                w->leaseIndex = next;
                w->lastBeat = Clock::now();
                ++stats.leasesGranted;
                if (!grantLease(*w, job, next)) {
                    // The pipe is dead; the reader's EOF event will
                    // retire the worker — put the lease back now.
                    releaseLeaseLocked(*w, job);
                }
            }

            if (done >= leases.size())
                break;
            if (events.empty()) {
                cv.wait_for(lock,
                            std::chrono::milliseconds(std::max(
                                1, opts.heartbeatMs / 4)));
            }
        }
        if (degraded)
            ++stats.jobsDegraded;
        return true;
    }

    /** Dispatch one worker frame against the job's lease table. */
    template <typename FinishFn>
    void handleFrameLocked(WorkerProc &w, const wire::Frame &frame,
                           ShardJob &job, const FinishFn &finishLease)
    {
        switch (frame.type) {
          case wire::FrameType::Heartbeat:
            // Liveness only (lastBeat already updated), but a payload
            // that fails to decode loses trust like any other frame.
            wire::decodeHeartbeat(frame.payload);
            break;
          case wire::FrameType::Partial:
            // In-lease progress doubles as the heartbeat; nothing
            // else to do until the RESULT.
            wire::decodePartial(frame.payload);
            break;
          case wire::FrameType::Result: {
            wire::ResultMsg msg = wire::decodeResult(frame.payload);
            if (w.leaseIndex < 0)
                break; // orphaned lease from a cancelled job
            LeaseWork &lease =
                job.leases[static_cast<size_t>(w.leaseIndex)];
            if (msg.jobKey != job.key ||
                msg.lease != static_cast<uint64_t>(w.leaseIndex) ||
                lease.attempts - 1 != msg.attempt) {
                break; // stale attempt (already reassigned)
            }
            w.leaseIndex = -1;
            ++stats.leasesCompleted;
            finishLease(lease, std::move(msg.items));
            break;
          }
          case wire::FrameType::Error: {
            const wire::ErrorMsg msg = wire::decodeError(frame.payload);
            if (w.leaseIndex < 0 || msg.jobKey != job.key ||
                msg.lease != static_cast<uint64_t>(w.leaseIndex))
                break;
            // A clean failure report: the worker survives, the lease
            // goes back on the queue (or into quarantine).
            releaseLeaseLocked(w, job);
            break;
          }
          default:
            throw wire::WireError(
                std::string("unexpected frame from worker: ") +
                wire::frameTypeName(frame.type));
        }
    }

    /** Encode the SUBMIT payload replicating @p job on a worker. */
    std::vector<uint8_t> encodeJobSubmit(const ShardJob &job,
                                         const ScheduledCircuit &sched)
    {
        wire::SubmitMsg msg;
        msg.jobKey = job.key;
        msg.runcard = runcardText(machine.device());
        msg.cycle = machine.calibration().cycle;
        msg.flags = machine.flags();
        msg.backend = static_cast<uint8_t>(job.prepared.backend());
        msg.shots = job.shots;
        msg.seed = job.seed;
        msg.sched = sched;
        msg.faults = FaultInjector::global().config();
        return wire::encodeSubmit(msg);
    }

    void shutdownPool()
    {
        std::unique_lock<std::mutex> lock(mutex);
        for (size_t i = 0; i < slots.size(); ++i) {
            WorkerProc *w = slots[i].get();
            if (w == nullptr)
                continue;
            try {
                wire::writeFrame(w->fd, wire::FrameType::Shutdown, {});
            } catch (const wire::WireError &) {
                // Already dead; reaping below handles it.
            }
            retireWorker(lock, static_cast<int>(i), false);
        }
        events.clear();
    }
};

ShardExecutor::ShardExecutor(const NoisyMachine &machine,
                             ShardOptions opts)
    : impl_(std::make_unique<Impl>(machine,
                                   checkedOptions(std::move(opts))))
{
}

ShardExecutor::~ShardExecutor()
{
    shutdown();
}

bool
ShardExecutor::available() const
{
    return impl_->available();
}

const std::string &
ShardExecutor::workerBinary() const
{
    return impl_->binary;
}

std::vector<int>
ShardExecutor::workerPids() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    std::vector<int> pids;
    for (const std::unique_ptr<WorkerProc> &w : impl_->slots) {
        if (w != nullptr && w->pid > 0)
            pids.push_back(static_cast<int>(w->pid));
    }
    return pids;
}

RunOutcome
ShardExecutor::runSharded(const PreparedCircuit &prepared,
                          const ScheduledCircuit &sched, int shots,
                          uint64_t seed, const RunControl &control) const
{
    require(shots > 0, "runSharded requires at least one shot");
    Impl &impl = *impl_;
    if (!impl.available()) {
        return impl.machine.runPartial(prepared, shots, seed,
                                       /*threads=*/0, control);
    }
    std::lock_guard<std::mutex> jobLock(impl.jobMutex);

    ShardJob job;
    {
        std::lock_guard<std::mutex> lock(impl.mutex);
        job.key = impl.nextJobKey++;
    }
    job.prepared = prepared;
    job.shots = shots;
    job.seed = seed;
    job.submit = impl.encodeJobSubmit(job, sched);
    const int64_t block_shots = impl.machine.shardBlockShots(prepared);
    const int64_t blocks = impl.machine.shardBlockCount(prepared, shots);
    for (int64_t lo = 0; lo < blocks; lo += impl.opts.leaseBlocks) {
        LeaseWork lease;
        lease.blockLo = lo;
        lease.blockHi =
            std::min<int64_t>(lo + impl.opts.leaseBlocks, blocks);
        lease.leaseShots =
            std::min<int64_t>(lease.blockHi * block_shots,
                              static_cast<int64_t>(shots)) -
            lo * block_shots;
        job.leases.push_back(std::move(lease));
    }

    const bool completed = impl.runLeases(job, control);

    // The completed-lease prefix is every lease of a completed job,
    // and the leases [0, k) that completed contiguously of a stopped
    // one.
    Items items;
    for (size_t i = 0; i < job.prefix; ++i) {
        items.insert(items.end(), job.leases[i].items.begin(),
                     job.leases[i].items.end());
    }
    RunOutcome out;
    out.dist = mergeShardItems(std::move(items));
    out.shotsDone = job.prefixShots;
    out.partial = !completed;
    if (!completed)
        out.cause = control.token.cause();
    return out;
}

ShardStats
ShardExecutor::stats() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->stats;
}

void
ShardExecutor::shutdown()
{
    std::lock_guard<std::mutex> jobLock(impl_->jobMutex);
    impl_->shutdownPool();
}

} // namespace adapt::serve
