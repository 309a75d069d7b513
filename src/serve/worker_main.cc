/**
 * @file
 * Shard-executor worker process (`adapt_shard_worker`).
 *
 * Spawned by serve/shard_executor.cc with one end of a socketpair on
 * the fd named by `--fd=N`.  The worker holds exactly ONE current
 * job: SUBMIT replaces it (parse runcard → NoisyMachine → prepare),
 * LEASE executes a compiled block range of it via runShardRange —
 * emitting a PARTIAL per committed block, which doubles as the
 * heartbeat — and answers with a RESULT carrying the range's sorted
 * (key, count) items.  Determinism does all the heavy lifting: the
 * items depend only on (job seed, absolute block range), so the
 * coordinator can re-execute a lost lease anywhere, bit-identically.
 *
 * The coordinator ships its FaultConfig inside every SUBMIT, and the
 * worker evaluates the process-level fault sites itself, keyed by
 * faultKey(lease ordinal, attempt) — a pure function of the schedule,
 * independent of which worker drew the lease:
 *   - LeaseStall:    sleep stallMs at lease start, silently (no
 *                    PARTIALs) — trips the coordinator's heartbeat
 *                    watchdog when stallMs exceeds it;
 *   - WorkerCrash:   commit one block (one PARTIAL), then _exit(42)
 *                    without a RESULT — an abrupt mid-lease death;
 *   - FrameCorrupt:  compute the correct RESULT, then flip a payload
 *                    byte *after* the CRC was sealed and push the raw
 *                    bytes — exercising the coordinator's CRC path.
 *
 * Exit codes: 0 clean (SHUTDOWN or coordinator EOF), 1 wire protocol
 * violation, 42 injected crash, 127 exec-stage failure.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "device/runcard.hh"
#include "noise/machine.hh"
#include "serve/fault.hh"
#include "serve/wire.hh"

namespace
{

using namespace adapt;
using namespace adapt::serve;

/** The one job this worker currently holds.  Destruction order
 *  matters: machine references device, prepared outlives neither. */
struct CurrentJob
{
    uint64_t jobKey = 0;
    std::unique_ptr<Device> device;
    std::unique_ptr<NoisyMachine> machine;
    PreparedCircuit prepared;
    int shots = 0;
    uint64_t seed = 1;

    void clear()
    {
        prepared = PreparedCircuit{};
        machine.reset();
        device.reset();
        jobKey = 0;
    }
};

void
sendHeartbeat(int fd, int worker)
{
    wire::HeartbeatMsg hb;
    hb.worker = static_cast<uint64_t>(worker);
    hb.pid = static_cast<uint64_t>(::getpid());
    wire::writeFrame(fd, wire::FrameType::Heartbeat,
                     wire::encodeHeartbeat(hb));
}

void
sendError(int fd, uint64_t jobKey, uint64_t lease,
          const std::string &message)
{
    wire::ErrorMsg err;
    err.jobKey = jobKey;
    err.lease = lease;
    err.message = message;
    wire::writeFrame(fd, wire::FrameType::Error,
                     wire::encodeError(err));
}

void
handleSubmit(int fd, int worker, CurrentJob &job, wire::SubmitMsg msg)
{
    if (job.jobKey == msg.jobKey && job.machine != nullptr)
        return; // coordinator re-sent a job we already hold
    // Replay the coordinator's fault schedule: worker-side injection
    // decisions become pure functions of (seed, site, key) shared
    // with every other worker and with in-process fallbacks.
    FaultInjector::global().configure(msg.faults);
    job.clear();
    try {
        job.device = std::make_unique<Device>(
            parseRuncard(msg.runcard, "<submit>"));
        job.machine = std::make_unique<NoisyMachine>(
            *job.device, msg.cycle, msg.flags);
        // decodeSubmit rejected backend bytes past Stabilizer.
        job.prepared = job.machine->prepare(
            msg.sched, static_cast<BackendKind>(msg.backend));
    } catch (const std::exception &e) {
        job.clear();
        // kBadSubmitLease: never collides with a real lease ordinal,
        // so the coordinator ignores this frame and learns of the
        // failure from the paired LEASE's own error instead.
        sendError(fd, msg.jobKey, UINT64_MAX,
                  std::string("submit failed: ") + e.what());
        return;
    }
    job.jobKey = msg.jobKey;
    job.shots = msg.shots;
    job.seed = msg.seed;
    // Prepare can be the slow part of a lease; refresh liveness once
    // it lands so the watchdog clock restarts before execution.
    sendHeartbeat(fd, worker);
}

void
handleLease(int fd, CurrentJob &job, const wire::LeaseMsg &msg)
{
    if (job.machine == nullptr || job.jobKey != msg.jobKey) {
        sendError(fd, msg.jobKey, msg.lease,
                  "lease for a job this worker does not hold");
        return;
    }
    FaultInjector &faults = FaultInjector::global();
    const uint64_t key = faultKey(msg.lease, msg.attempt);
    const int64_t block_shots =
        job.machine->shardBlockShots(job.prepared);
    const int64_t lo = msg.blockLo;
    const int64_t hi = msg.blockHi;

    if (faults.fires(FaultSite::LeaseStall, key)) {
        // Hang, silently: no PARTIALs while asleep, so a stall longer
        // than the coordinator's heartbeatMs reads as a hung worker.
        const int stall_ms = faults.config().stallMs;
        if (stall_ms > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(stall_ms));
        }
    }

    if (faults.fires(FaultSite::WorkerCrash, key)) {
        // Die mid-lease with work genuinely committed: one block, one
        // PARTIAL, no RESULT.  _exit skips atexit/leak machinery —
        // this is an induced crash, not a clean shutdown.
        const int64_t first_hi = std::min<int64_t>(lo + 1, hi);
        job.machine->runShardRange(job.prepared, job.shots, lo,
                                   first_hi, job.seed);
        wire::PartialMsg part;
        part.jobKey = msg.jobKey;
        part.lease = msg.lease;
        part.shotsDone = std::min<int64_t>(
            block_shots, static_cast<int64_t>(job.shots) -
                             lo * block_shots);
        wire::writeFrame(fd, wire::FrameType::Partial,
                         wire::encodePartial(part));
        ::_exit(42);
    }

    std::vector<std::pair<uint64_t, uint64_t>> items;
    try {
        items = job.machine->runShardRange(
            job.prepared, job.shots, lo, hi, job.seed,
            [&](int64_t done) {
                wire::PartialMsg part;
                part.jobKey = msg.jobKey;
                part.lease = msg.lease;
                part.shotsDone = done;
                wire::writeFrame(fd, wire::FrameType::Partial,
                                 wire::encodePartial(part));
            });
    } catch (const wire::WireError &) {
        throw; // transport is gone; let main() exit
    } catch (const std::exception &e) {
        sendError(fd, msg.jobKey, msg.lease, e.what());
        return;
    }

    wire::ResultMsg res;
    res.jobKey = msg.jobKey;
    res.lease = msg.lease;
    res.attempt = msg.attempt;
    res.items = std::move(items);

    if (faults.fires(FaultSite::FrameCorrupt, key)) {
        // Seal the frame (CRC included), then damage the payload and
        // ship the raw bytes: a byte flipped in transit.  The
        // coordinator's CRC check must drop the connection.
        std::vector<uint8_t> raw = wire::encodeFrame(
            wire::FrameType::Result, wire::encodeResult(res));
        raw[wire::kHeaderBytes] ^= 0x5a;
        wire::writeRaw(fd, raw);
        return; // coordinator kills us; EOF ends the loop
    }
    wire::writeFrame(fd, wire::FrameType::Result,
                     wire::encodeResult(res));
}

} // namespace

int
main(int argc, char **argv)
{
    int fd = 3;
    int worker = 0;
    for (int i = 1; i < argc; i++) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--fd=", 5) == 0)
            fd = std::atoi(arg + 5);
        else if (std::strncmp(arg, "--worker=", 9) == 0)
            worker = std::atoi(arg + 9);
    }
    // The socket write path suppresses SIGPIPE per-call; belt and
    // braces for any stray pipe transport.
    ::signal(SIGPIPE, SIG_IGN);

    CurrentJob job;
    try {
        // Post-exec hello: its arrival tells the coordinator the exec
        // stage succeeded (EOF before any frame = exec failure).
        sendHeartbeat(fd, worker);
        wire::Frame frame;
        while (wire::readFrame(fd, frame)) {
            switch (frame.type) {
              case wire::FrameType::Submit:
                handleSubmit(fd, worker, job,
                             wire::decodeSubmit(frame.payload));
                break;
              case wire::FrameType::Lease:
                handleLease(fd, job,
                            wire::decodeLease(frame.payload));
                break;
              case wire::FrameType::Shutdown:
                return 0;
              case wire::FrameType::Heartbeat:
                break; // tolerated, unused in this direction
              default:
                sendError(fd, 0, UINT64_MAX,
                          std::string("unexpected frame: ") +
                              wire::frameTypeName(frame.type));
                break;
            }
        }
    } catch (const wire::WireError &e) {
        std::fprintf(stderr, "adapt_shard_worker[%d]: %s\n", worker,
                     e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "adapt_shard_worker[%d]: fatal: %s\n",
                     worker, e.what());
        return 1;
    }
    return 0;
}
