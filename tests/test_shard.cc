/**
 * @file
 * Shard-executor suite: the wire protocol, the shard-range execution
 * contract, the supervised multi-process executor, and the
 * JobServer's shard lane.
 *
 * The central lock, asserted over and over: the merged histogram of a
 * sharded run is bit-identical to the in-process run() oracle — at
 * every pool size, under every injected failure (worker crashes,
 * heartbeat stalls, corrupted frames, exec failures), through
 * quarantine and full in-process degradation.  Failure scenarios are
 * driven through serve/fault.hh's deterministic schedule, so every
 * recovery path replays exactly; wall-clock never decides an
 * assertion (timing knobs only choose *which* recovery path runs).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "device/runcard.hh"
#include "noise/machine.hh"
#include "serve/fault.hh"
#include "serve/job_server.hh"
#include "serve/shard_executor.hh"
#include "serve/wire.hh"
#include "sim/frame_batch.hh"
#include "test_util.hh"
#include "transpile/decompose.hh"
#include "transpile/schedule.hh"
#include "transpile/transpiler.hh"
#include "workloads/benchmarks.hh"

using namespace adapt;
using namespace adapt::serve;
using namespace adapt::testutil;

namespace
{

/** Dense (state-vector) job with its schedule kept around. */
struct JobUnderTest
{
    ScheduledCircuit sched{0, 0};
    PreparedCircuit prepared;
};

JobUnderTest
denseJob(const NoisyMachine &machine, const Device &device)
{
    const CompiledProgram p = transpile(
        makeQft(4, QftState::A), device, device.calibration(0));
    JobUnderTest job{p.schedule, machine.prepare(p.schedule)};
    return job;
}

/** Clifford job routed to the batched Pauli-frame engine
 *  (kFrameLanes-sized shard blocks). */
JobUnderTest
frameJob(const NoisyMachine &machine, const Device &device)
{
    Circuit c(4);
    for (int q = 0; q < 4; q++)
        c.h(static_cast<QubitId>(q));
    c.cx(0, 1);
    c.cx(2, 3);
    for (int q = 0; q < 4; q++)
        c.delay(1200.0, static_cast<QubitId>(q));
    c.cx(1, 2);
    c.measureAll();
    JobUnderTest job;
    job.sched = schedule(decompose(c), device.topology(),
                         device.calibration(0), ScheduleMode::Alap);
    job.prepared =
        machine.prepare(job.sched, BackendKind::Stabilizer);
    return job;
}

ShardOptions
poolOf(int workers)
{
    ShardOptions opts;
    opts.workers = workers;
    opts.leaseBlocks = 2;
    opts.heartbeatMs = 2000; // generous: stalls opt in explicitly
    return opts;
}

/** A JobServer spec for @p job.  A @p sharded spec carries the
 *  schedule, so a server with an available executor shards it. */
JobSpec
specOf(const JobUnderTest &job, int shots, uint64_t seed, bool sharded)
{
    JobSpec spec;
    spec.prepared = job.prepared;
    spec.shots = shots;
    spec.seed = seed;
    if (sharded)
        spec.sched = std::make_shared<const ScheduledCircuit>(job.sched);
    return spec;
}

/** Poll until a server thread has picked @p id up. */
void
waitWhileQueued(const JobServer &server, JobId id)
{
    while (server.state(id) == JobState::Queued)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

/** Disarm the fault harness around every test. */
class ShardTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::global().reset(); }
    void TearDown() override { FaultInjector::global().reset(); }
};

} // namespace

// ------------------------------------------------------------- wire

TEST_F(ShardTest, FrameRoundTripsOverSocketpair)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    const std::vector<uint8_t> payload = {1, 2, 3, 250, 0, 77};
    wire::writeFrame(sv[0], wire::FrameType::Partial, payload);
    wire::writeFrame(sv[0], wire::FrameType::Shutdown, {});
    wire::Frame f;
    ASSERT_TRUE(wire::readFrame(sv[1], f));
    EXPECT_EQ(f.type, wire::FrameType::Partial);
    EXPECT_EQ(f.payload, payload);
    ASSERT_TRUE(wire::readFrame(sv[1], f));
    EXPECT_EQ(f.type, wire::FrameType::Shutdown);
    EXPECT_TRUE(f.payload.empty());
    ::close(sv[0]); // EOF, cleanly at a frame boundary
    EXPECT_FALSE(wire::readFrame(sv[1], f));
    ::close(sv[1]);
}

TEST_F(ShardTest, CorruptedPayloadFailsTheCrcCheck)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::vector<uint8_t> raw =
        wire::encodeFrame(wire::FrameType::Result, {9, 9, 9, 9});
    raw[wire::kHeaderBytes + 1] ^= 0x01; // one flipped bit in flight
    wire::writeRaw(sv[0], raw);
    wire::Frame f;
    EXPECT_THROW(wire::readFrame(sv[1], f), wire::WireError);
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST_F(ShardTest, TruncatedFrameIsAnErrorNotAnEof)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    const std::vector<uint8_t> raw =
        wire::encodeFrame(wire::FrameType::Result, {1, 2, 3, 4});
    const std::vector<uint8_t> cut(raw.begin(), raw.end() - 2);
    wire::writeRaw(sv[0], cut);
    ::close(sv[0]); // peer dies mid-frame
    wire::Frame f;
    EXPECT_THROW(wire::readFrame(sv[1], f), wire::WireError);
    ::close(sv[1]);
}

TEST_F(ShardTest, MessageCodecsRoundTrip)
{
    wire::LeaseMsg lease;
    lease.jobKey = 7;
    lease.lease = 3;
    lease.attempt = 2;
    lease.blockLo = 10;
    lease.blockHi = 14;
    const wire::LeaseMsg lease2 =
        wire::decodeLease(wire::encodeLease(lease));
    EXPECT_EQ(lease2.jobKey, 7u);
    EXPECT_EQ(lease2.lease, 3u);
    EXPECT_EQ(lease2.attempt, 2u);
    EXPECT_EQ(lease2.blockLo, 10);
    EXPECT_EQ(lease2.blockHi, 14);

    // A lease names one block range [lo, hi) of its job: a negative
    // start or a reversed range is a typed WireError.
    for (const auto &[lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
             {10, -1}, {-1, 4}, {5, 4}}) {
        wire::LeaseMsg bad = lease;
        bad.blockLo = lo;
        bad.blockHi = hi;
        EXPECT_THROW(wire::decodeLease(wire::encodeLease(bad)),
                     wire::WireError)
            << "[" << lo << ", " << hi << ")";
    }

    wire::ResultMsg res;
    res.jobKey = 7;
    res.lease = 3;
    res.attempt = 2;
    res.items = {{0, 12}, {5, 1}, {0xffffffffffffffffULL, 3}};
    const wire::ResultMsg res2 =
        wire::decodeResult(wire::encodeResult(res));
    EXPECT_EQ(res2.items, res.items);

    wire::ErrorMsg err;
    err.jobKey = 9;
    err.lease = 1;
    err.message = "boom";
    const wire::ErrorMsg err2 =
        wire::decodeError(wire::encodeError(err));
    EXPECT_EQ(err2.message, "boom");

    wire::HeartbeatMsg beat;
    beat.worker = 4;
    beat.pid = 0x12345678abcdULL;
    const std::vector<uint8_t> beat_bytes = wire::encodeHeartbeat(beat);
    const wire::HeartbeatMsg beat2 = wire::decodeHeartbeat(beat_bytes);
    EXPECT_EQ(beat2.worker, 4u);
    EXPECT_EQ(beat2.pid, 0x12345678abcdULL);

    wire::PartialMsg part;
    part.jobKey = 7;
    part.lease = 3;
    part.shotsDone = 1536;
    const std::vector<uint8_t> part_bytes = wire::encodePartial(part);
    const wire::PartialMsg part2 = wire::decodePartial(part_bytes);
    EXPECT_EQ(part2.jobKey, 7u);
    EXPECT_EQ(part2.lease, 3u);
    EXPECT_EQ(part2.shotsDone, 1536);

    // A truncated or over-long payload is a typed WireError (the
    // coordinator then drops the worker as corrupt).
    const auto truncated = [](std::vector<uint8_t> b) {
        b.pop_back();
        return b;
    };
    const auto trailing = [](std::vector<uint8_t> b) {
        b.push_back(0);
        return b;
    };
    EXPECT_THROW(wire::decodeHeartbeat(truncated(beat_bytes)),
                 wire::WireError);
    EXPECT_THROW(wire::decodeHeartbeat(trailing(beat_bytes)),
                 wire::WireError);
    EXPECT_THROW(wire::decodePartial(truncated(part_bytes)),
                 wire::WireError);
    EXPECT_THROW(wire::decodePartial(trailing(part_bytes)),
                 wire::WireError);

    // A backend byte past BackendKind::Stabilizer is a typed
    // WireError, not an out-of-range enum in the worker.
    wire::SubmitMsg submit;
    submit.backend = static_cast<uint8_t>(BackendKind::Stabilizer);
    EXPECT_NO_THROW(wire::decodeSubmit(wire::encodeSubmit(submit)));
    submit.backend = 3;
    EXPECT_THROW(wire::decodeSubmit(wire::encodeSubmit(submit)),
                 wire::WireError);

    // A schedule op the worker's structure phase would index out of
    // range (or ScheduledCircuit would refuse) is a typed WireError,
    // not an out-of-bounds read or a std::out_of_range.  Crafted on a
    // 3-qubit, 2-clbit schedule; addOp keeps whatever it is given.
    const auto submitOf = [](const TimedOp &op) {
        wire::SubmitMsg msg;
        msg.sched = ScheduledCircuit(3, 2);
        msg.sched.addOp(op);
        return wire::encodeSubmit(msg);
    };
    const auto timed = [](GateType type, std::vector<QubitId> qubits,
                          std::vector<double> params = {}) {
        TimedOp op;
        op.gate.type = type;
        op.gate.qubits = std::move(qubits);
        op.gate.params = std::move(params);
        op.start = 100.0;
        op.end = 135.5;
        return op;
    };
    TimedOp measure = timed(GateType::Measure, {2});
    measure.gate.clbit = 1;
    TimedOp cond = timed(GateType::X, {0});
    cond.gate.condBit = 1;
    for (const TimedOp &ok :
         {timed(GateType::CX, {0, 1}), timed(GateType::Barrier, {0}),
          timed(GateType::RZ, {2}, {0.5}), measure, cond}) {
        EXPECT_NO_THROW(wire::decodeSubmit(submitOf(ok)))
            << ok.gate.toString();
    }
    std::vector<std::pair<std::string, TimedOp>> bad = {
        {"cx with one operand", timed(GateType::CX, {0})},
        {"barrier without operands", timed(GateType::Barrier, {})},
        {"rz without its angle", timed(GateType::RZ, {0})},
        {"x with an angle", timed(GateType::X, {0}, {0.5})},
        {"qubit past the register", timed(GateType::X, {3})},
        {"negative qubit", timed(GateType::CX, {-1, 0})},
    };
    bad.emplace_back("clbit past the register", measure);
    bad.back().second.gate.clbit = 2;
    bad.emplace_back("clbit below -1", measure);
    bad.back().second.gate.clbit = -2;
    bad.emplace_back("condBit past the register", cond);
    bad.back().second.gate.condBit = 2;
    bad.emplace_back("condBit below -1", cond);
    bad.back().second.gate.condBit = -2;
    bad.emplace_back("infinite end", timed(GateType::X, {0}));
    bad.back().second.end = std::numeric_limits<double>::infinity();
    bad.emplace_back("link index below -1", timed(GateType::CX, {0, 1}));
    bad.back().second.linkIndex = -2;
    for (const auto &[what, op] : bad) {
        EXPECT_THROW(wire::decodeSubmit(submitOf(op)), wire::WireError)
            << what;
    }
    // addOp refuses end < start and NaN times, so swap the two
    // timestamps on the wire instead.
    std::vector<uint8_t> reversed = submitOf(timed(GateType::X, {0}));
    wire::Writer times;
    times.f64(100.0);
    times.f64(135.5);
    const auto at = std::search(reversed.begin(), reversed.end(),
                                times.bytes().begin(),
                                times.bytes().end());
    ASSERT_NE(at, reversed.end());
    std::rotate(at, at + 8, at + 16);
    EXPECT_THROW(wire::decodeSubmit(reversed), wire::WireError);
}

TEST_F(ShardTest, SubmitMsgRoundTripsTheJobExactly)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const JobUnderTest job = denseJob(machine, d);

    wire::SubmitMsg msg;
    msg.jobKey = 42;
    msg.runcard = runcardText(d);
    msg.cycle = 0;
    msg.flags = machine.flags();
    msg.backend = static_cast<uint8_t>(BackendKind::Dense);
    msg.shots = 300;
    msg.seed = 11;
    msg.sched = job.sched;
    msg.faults.seed = 5;
    msg.faults.probability[static_cast<int>(
        FaultSite::WorkerCrash)] = 0.25;
    msg.faults.forceAt(FaultSite::LeaseStall, 77);

    const wire::SubmitMsg back =
        wire::decodeSubmit(wire::encodeSubmit(msg));
    EXPECT_EQ(back.jobKey, 42u);
    EXPECT_EQ(back.seed, 11u);
    EXPECT_EQ(back.faults.seed, 5u);
    ASSERT_EQ(back.faults.force.size(), 1u);
    EXPECT_EQ(back.faults.force[0].first, FaultSite::LeaseStall);

    // The decoded job must rebuild bit-identically: same runcard,
    // same schedule, same histogram.
    const Device d2 = parseRuncard(back.runcard, "<test>");
    const NoisyMachine machine2(d2, back.cycle, back.flags);
    const PreparedCircuit prepared2 = machine2.prepare(
        back.sched, static_cast<BackendKind>(back.backend));
    EXPECT_TRUE(distributionsIdentical(
        machine.run(job.prepared, 300, 11),
        machine2.run(prepared2, 300, 11)));
}

// ------------------------------------------------ shard-range oracle

TEST_F(ShardTest, ShardRangePartitionsMergeToRun)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine dense_machine(d);
    const NoisyMachine frame_machine(d, 0, NoiseFlags::pauliOnly());
    constexpr int kShots = 700;
    for (const bool frame : {false, true}) {
        const NoisyMachine &machine =
            frame ? frame_machine : dense_machine;
        const JobUnderTest job =
            frame ? frameJob(machine, d) : denseJob(machine, d);
        const Distribution oracle =
            machine.run(job.prepared, kShots, 5);
        const int64_t blocks =
            machine.shardBlockCount(job.prepared, kShots);
        ASSERT_GE(blocks, 2) << "job too small to shard";
        // Partition [0, blocks) at every split point; each partition
        // must merge to the oracle exactly.
        for (int64_t cut = 1; cut < blocks; cut++) {
            auto lo_items = machine.runShardRange(job.prepared,
                                                  kShots, 0, cut, 5);
            const auto hi_items = machine.runShardRange(
                job.prepared, kShots, cut, blocks, 5);
            lo_items.insert(lo_items.end(), hi_items.begin(),
                            hi_items.end());
            EXPECT_TRUE(distributionsIdentical(
                mergeShardItems(std::move(lo_items)), oracle))
                << (frame ? "frame" : "dense") << " cut=" << cut;
        }
    }
}

// ------------------------------------------------- sharded execution

TEST_F(ShardTest, CleanShardedRunMatchesOracleAtEveryPoolSize)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine dense_machine(d);
    const NoisyMachine frame_machine(d, 0, NoiseFlags::pauliOnly());
    constexpr int kShots = 700;
    for (const bool frame : {false, true}) {
        const NoisyMachine &machine =
            frame ? frame_machine : dense_machine;
        const JobUnderTest job =
            frame ? frameJob(machine, d) : denseJob(machine, d);
        const Distribution oracle =
            machine.run(job.prepared, kShots, 5);
        for (const int workers : {1, 4, 8}) {
            ShardExecutor exec(machine, poolOf(workers));
            ASSERT_TRUE(exec.available())
                << "worker binary not found: build adapt_shard_worker";
            const RunOutcome out = exec.runSharded(
                job.prepared, job.sched, kShots, 5);
            EXPECT_FALSE(out.partial);
            EXPECT_EQ(out.shotsDone, kShots);
            EXPECT_TRUE(distributionsIdentical(out.dist, oracle))
                << (frame ? "frame" : "dense")
                << " workers=" << workers;
            const ShardStats s = exec.stats();
            EXPECT_EQ(s.leasesCompleted, s.leasesGranted);
            EXPECT_EQ(s.leasesReassigned, 0u);
        }
    }
}

TEST_F(ShardTest, WorkerCrashMidLeaseRecoversBitIdentically)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const JobUnderTest job = denseJob(machine, d);
    constexpr int kShots = 700;
    const Distribution oracle = machine.run(job.prepared, kShots, 5);

    // Leases 0 and 2 crash their workers on the first attempt; the
    // retries (attempt 1) run clean.
    FaultConfig cfg;
    cfg.forceAt(FaultSite::WorkerCrash, faultKey(0, 0));
    cfg.forceAt(FaultSite::WorkerCrash, faultKey(2, 0));
    FaultInjector::global().configure(cfg);

    ShardExecutor exec(machine, poolOf(2));
    ASSERT_TRUE(exec.available());
    const RunOutcome out =
        exec.runSharded(job.prepared, job.sched, kShots, 5);
    EXPECT_FALSE(out.partial);
    EXPECT_TRUE(distributionsIdentical(out.dist, oracle));

    const ShardStats s = exec.stats();
    EXPECT_EQ(s.workersCrashed, 2u);
    EXPECT_EQ(s.leasesReassigned, 2u);
    // At least one replacement spawns while leases are still pending;
    // whether the second crash also triggers one depends on whether
    // the surviving worker drains the reassigned lease before the
    // respawn loop runs, so the exact count is timing-dependent.
    EXPECT_GE(s.workersRestarted, 1u);
    EXPECT_EQ(s.detections, 2u);
    EXPECT_GE(s.meanDetectionLatencyMs(), 0.0);
}

TEST_F(ShardTest, HeartbeatStallIsDetectedAndReassigned)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const JobUnderTest job = denseJob(machine, d);
    constexpr int kShots = 700;
    const Distribution oracle = machine.run(job.prepared, kShots, 5);

    // Lease 1's first attempt sleeps far past the heartbeat deadline
    // without emitting PARTIALs; the watchdog must kill and reassign.
    FaultConfig cfg;
    cfg.forceAt(FaultSite::LeaseStall, faultKey(1, 0));
    cfg.stallMs = 2000;
    FaultInjector::global().configure(cfg);

    ShardOptions opts = poolOf(2);
    opts.heartbeatMs = 150;
    ShardExecutor exec(machine, opts);
    ASSERT_TRUE(exec.available());
    const RunOutcome out =
        exec.runSharded(job.prepared, job.sched, kShots, 5);
    EXPECT_FALSE(out.partial);
    EXPECT_TRUE(distributionsIdentical(out.dist, oracle));

    const ShardStats s = exec.stats();
    EXPECT_GE(s.workersStalled, 1u);
    EXPECT_GE(s.leasesReassigned, 1u);
    EXPECT_GE(s.detections, 1u);
    // The watchdog acted after (roughly) the heartbeat deadline.
    EXPECT_GE(s.meanDetectionLatencyMs(), opts.heartbeatMs * 0.5);
}

TEST_F(ShardTest, ShortStallWithinHeartbeatJustRunsLate)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const JobUnderTest job = denseJob(machine, d);
    constexpr int kShots = 400;

    FaultConfig cfg;
    cfg.forceAt(FaultSite::LeaseStall, faultKey(0, 0));
    cfg.stallMs = 50; // well under the heartbeat deadline
    FaultInjector::global().configure(cfg);

    ShardExecutor exec(machine, poolOf(2));
    ASSERT_TRUE(exec.available());
    const RunOutcome out =
        exec.runSharded(job.prepared, job.sched, kShots, 5);
    EXPECT_FALSE(out.partial);
    EXPECT_TRUE(distributionsIdentical(
        out.dist, machine.run(job.prepared, kShots, 5)));
    EXPECT_EQ(exec.stats().workersStalled, 0u);
    EXPECT_EQ(exec.stats().leasesReassigned, 0u);
}

TEST_F(ShardTest, CorruptResultFrameDropsTheConnection)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const JobUnderTest job = denseJob(machine, d);
    constexpr int kShots = 700;
    const Distribution oracle = machine.run(job.prepared, kShots, 5);

    FaultConfig cfg;
    cfg.forceAt(FaultSite::FrameCorrupt, faultKey(0, 0));
    FaultInjector::global().configure(cfg);

    ShardExecutor exec(machine, poolOf(2));
    ASSERT_TRUE(exec.available());
    const RunOutcome out =
        exec.runSharded(job.prepared, job.sched, kShots, 5);
    EXPECT_FALSE(out.partial);
    EXPECT_TRUE(distributionsIdentical(out.dist, oracle));

    const ShardStats s = exec.stats();
    EXPECT_GE(s.corruptFrames, 1u);
    EXPECT_GE(s.leasesReassigned, 1u);
}

TEST_F(ShardTest, RepeatedLeaseFailureQuarantinesInProcess)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const JobUnderTest job = denseJob(machine, d);
    constexpr int kShots = 700;
    const Distribution oracle = machine.run(job.prepared, kShots, 5);

    // Lease 1 crashes its worker on every allowed attempt: it must be
    // quarantined and finished in-process, not retried forever.
    ShardOptions opts = poolOf(2);
    opts.maxLeaseAttempts = 3;
    FaultConfig cfg;
    for (uint32_t attempt = 0; attempt < 3; attempt++)
        cfg.forceAt(FaultSite::WorkerCrash, faultKey(1, attempt));
    FaultInjector::global().configure(cfg);

    ShardExecutor exec(machine, opts);
    ASSERT_TRUE(exec.available());
    const RunOutcome out =
        exec.runSharded(job.prepared, job.sched, kShots, 5);
    EXPECT_FALSE(out.partial);
    EXPECT_TRUE(distributionsIdentical(out.dist, oracle));

    const ShardStats s = exec.stats();
    EXPECT_EQ(s.leasesQuarantined, 1u);
    EXPECT_EQ(s.workersCrashed, 3u);
    EXPECT_GE(s.jobsDegraded, 1u);
}

TEST_F(ShardTest, ExecFailureOfOneSpawnIsAbsorbed)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const JobUnderTest job = denseJob(machine, d);
    constexpr int kShots = 400;

    FaultConfig cfg;
    cfg.forceAt(FaultSite::ExecFailure, 0); // first spawn never comes up
    FaultInjector::global().configure(cfg);

    ShardExecutor exec(machine, poolOf(2));
    ASSERT_TRUE(exec.available());
    const RunOutcome out =
        exec.runSharded(job.prepared, job.sched, kShots, 5);
    EXPECT_FALSE(out.partial);
    EXPECT_TRUE(distributionsIdentical(
        out.dist, machine.run(job.prepared, kShots, 5)));
    EXPECT_GE(exec.stats().execFailures, 1u);
}

TEST_F(ShardTest, NoSpawnableWorkersDegradesToInProcess)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const JobUnderTest job = denseJob(machine, d);
    constexpr int kShots = 700;
    const Distribution oracle = machine.run(job.prepared, kShots, 5);

    // Every spawn the budget allows fails at exec: the executor must
    // degrade gracefully and finish the whole job in-process.
    ShardOptions opts = poolOf(2);
    opts.maxRestarts = 1;
    FaultConfig cfg;
    for (uint64_t ordinal = 0; ordinal < 3; ordinal++)
        cfg.forceAt(FaultSite::ExecFailure, ordinal);
    FaultInjector::global().configure(cfg);

    ShardExecutor exec(machine, opts);
    ASSERT_TRUE(exec.available());
    const RunOutcome out =
        exec.runSharded(job.prepared, job.sched, kShots, 5);
    EXPECT_FALSE(out.partial);
    EXPECT_TRUE(distributionsIdentical(out.dist, oracle));

    const ShardStats s = exec.stats();
    EXPECT_EQ(s.jobsDegraded, 1u);
    EXPECT_GE(s.leasesInProcess, 1u);
    EXPECT_EQ(s.execFailures, 3u);
}

TEST_F(ShardTest, ProbabilisticCrashStormIsPoolSizeInvariant)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const JobUnderTest job = denseJob(machine, d);
    constexpr int kShots = 700;
    const Distribution oracle = machine.run(job.prepared, kShots, 5);

    // A 35% per-(lease, attempt) crash schedule: which leases die is
    // a pure function of the schedule seed, so every pool size sees
    // the same storm and every replay merges identically.
    const auto storm = [&](int workers) {
        FaultConfig cfg;
        cfg.seed = 99;
        cfg.probability[static_cast<int>(FaultSite::WorkerCrash)] =
            0.35;
        FaultInjector::global().configure(cfg);
        ShardExecutor exec(machine, poolOf(workers));
        EXPECT_TRUE(exec.available());
        const RunOutcome out =
            exec.runSharded(job.prepared, job.sched, kShots, 5);
        EXPECT_FALSE(out.partial);
        return out.dist;
    };
    for (const int workers : {1, 2, 4}) {
        EXPECT_TRUE(distributionsIdentical(storm(workers), oracle))
            << "workers=" << workers;
    }
}

TEST_F(ShardTest, CancellationDeliversAnExactLeasePrefix)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const JobUnderTest job = denseJob(machine, d);
    constexpr int kShots = 700;

    ShardOptions opts = poolOf(1); // serial leases: deterministic prefix
    ShardExecutor exec(machine, opts);
    ASSERT_TRUE(exec.available());

    CancellationSource source;
    RunControl ctl;
    ctl.token = source.token();
    ctl.progress = [&](int64_t shots_done) {
        if (shots_done > 0)
            source.cancel(); // stop after the first committed lease
    };
    const RunOutcome out =
        exec.runSharded(job.prepared, job.sched, kShots, 5, ctl);
    EXPECT_TRUE(out.partial);
    EXPECT_EQ(out.cause, StopCause::Cancelled);
    ASSERT_GT(out.shotsDone, 0);
    ASSERT_LT(out.shotsDone, kShots);
    // The committed prefix is bit-identical to an uninterrupted run
    // of exactly shotsDone shots.
    EXPECT_TRUE(distributionsIdentical(
        out.dist, machine.run(job.prepared,
                              static_cast<int>(out.shotsDone), 5)));
}

// --------------------------------------------------- JobServer wiring

TEST_F(ShardTest, JobServerRunsShardedJobsBitIdentically)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const JobUnderTest job = denseJob(machine, d);
    constexpr int kShots = 500;
    const Distribution oracle = machine.run(job.prepared, kShots, 7);

    ServerOptions opts; // programmatic: no env dependence
    opts.workers = 2;
    opts.shard = poolOf(2);
    JobServer server(machine, opts);
    ASSERT_NE(server.sharder(), nullptr);
    ASSERT_TRUE(server.sharder()->available());

    JobSpec spec;
    spec.prepared = job.prepared;
    spec.shots = kShots;
    spec.seed = 7;
    spec.sched = std::make_shared<const ScheduledCircuit>(job.sched);
    const Admission adm = server.submit("tenant-a", std::move(spec));
    ASSERT_TRUE(adm.accepted) << adm.reason;
    const JobResult result = server.wait(adm.id);
    EXPECT_EQ(result.state, JobState::Done);
    EXPECT_TRUE(distributionsIdentical(result.dist, oracle));
    EXPECT_GE(server.sharder()->stats().jobsSharded, 1u);
}

TEST_F(ShardTest, JobServerWithoutSchedKeepsInProcessPath)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const JobUnderTest job = denseJob(machine, d);
    constexpr int kShots = 300;

    ServerOptions opts;
    opts.workers = 1;
    opts.shard = poolOf(2);
    JobServer server(machine, opts);

    JobSpec spec; // no sched: must run in-process, exactly as before
    spec.prepared = job.prepared;
    spec.shots = kShots;
    spec.seed = 7;
    const Admission adm = server.submit("tenant-a", std::move(spec));
    ASSERT_TRUE(adm.accepted);
    const JobResult result = server.wait(adm.id);
    EXPECT_EQ(result.state, JobState::Done);
    EXPECT_TRUE(distributionsIdentical(
        result.dist, machine.run(job.prepared, kShots, 7)));
    EXPECT_EQ(server.sharder()->stats().jobsSharded, 0u);
}

TEST_F(ShardTest, ShardedJobDoesNotHoldAComputeWorker)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const JobUnderTest job = denseJob(machine, d);
    constexpr int kShots = 400;

    // Lease 0's first attempt stalls inside the heartbeat, so the
    // sharded job spends ~1.5 s waiting on its worker process.
    FaultConfig cfg;
    cfg.forceAt(FaultSite::LeaseStall, faultKey(0, 0));
    cfg.stallMs = 1500;
    FaultInjector::global().configure(cfg);

    ServerOptions opts;
    opts.workers = 1;
    opts.shard = poolOf(1);
    opts.shard.heartbeatMs = 10000;
    JobServer server(machine, opts);
    ASSERT_TRUE(server.sharder()->available());

    const Admission sharded =
        server.submit("bulk", specOf(job, kShots, 5, true));
    ASSERT_TRUE(sharded.accepted) << sharded.reason;
    waitWhileQueued(server, sharded.id);

    // The one compute worker stays free: in-process jobs submitted
    // while the sharded job runs all finish before it.
    std::vector<JobId> inProcess;
    for (int i = 0; i < 4; i++) {
        const Admission a = server.submit(
            "interactive",
            specOf(job, 64, 100 + static_cast<uint64_t>(i), false));
        ASSERT_TRUE(a.accepted) << a.reason;
        inProcess.push_back(a.id);
    }
    const JobResult bulk = server.wait(sharded.id);
    EXPECT_EQ(bulk.state, JobState::Done);
    EXPECT_TRUE(distributionsIdentical(
        bulk.dist, machine.run(job.prepared, kShots, 5)));
    for (const JobId id : inProcess) {
        const JobResult r = server.wait(id);
        EXPECT_EQ(r.state, JobState::Done);
        EXPECT_LT(r.finishSeq, bulk.finishSeq)
            << "in-process job " << id << " queued behind the shard";
    }
}

TEST_F(ShardTest, TenantQueueDepthCountsBothLanes)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const JobUnderTest job = denseJob(machine, d);

    ServerOptions opts;
    opts.workers = 1;
    opts.queueDepth = 2;
    opts.startPaused = true;
    opts.shard = poolOf(1);
    JobServer server(machine, opts);

    const Admission sharded = server.submit("t", specOf(job, 100, 1, true));
    const Admission local = server.submit("t", specOf(job, 100, 2, false));
    ASSERT_TRUE(sharded.accepted) << sharded.reason;
    ASSERT_TRUE(local.accepted) << local.reason;
    for (const bool third_sharded : {true, false}) {
        const Admission third =
            server.submit("t", specOf(job, 100, 3, third_sharded));
        EXPECT_FALSE(third.accepted) << "sharded=" << third_sharded;
        EXPECT_NE(third.reason.find("queue full"), std::string::npos);
    }

    server.start();
    EXPECT_TRUE(distributionsIdentical(
        server.wait(sharded.id).dist,
        machine.run(job.prepared, 100, 1)));
    EXPECT_TRUE(distributionsIdentical(server.wait(local.id).dist,
                                       machine.run(job.prepared, 100, 2)));
    EXPECT_EQ(server.sharder()->stats().jobsSharded, 1u);
}

TEST_F(ShardTest, CancelAndDrainReachTheShardLane)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const JobUnderTest job = denseJob(machine, d);

    ServerOptions opts;
    opts.queueDepth = 1;
    opts.startPaused = true;
    opts.shard = poolOf(1);
    JobServer server(machine, opts);

    const Admission cancelled =
        server.submit("t", specOf(job, 100, 1, true));
    ASSERT_TRUE(cancelled.accepted) << cancelled.reason;
    EXPECT_TRUE(server.cancel(cancelled.id));
    EXPECT_EQ(server.state(cancelled.id), JobState::Cancelled);
    const JobResult result = server.wait(cancelled.id);
    EXPECT_EQ(result.shotsDone, 0);
    EXPECT_NE(result.reason.find("queued"), std::string::npos);

    // The cancelled job left its lane, so the tenant's one queue slot
    // is free again.
    const Admission queued = server.submit("t", specOf(job, 100, 2, true));
    ASSERT_TRUE(queued.accepted) << queued.reason;

    // drain() waits for the queued sharded job, then returns once it
    // is done.
    std::atomic<bool> drained{false};
    std::thread drainer([&] {
        server.drain();
        drained = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_FALSE(drained) << "drain() returned with a sharded job queued";
    server.start();
    drainer.join();
    EXPECT_EQ(server.state(queued.id), JobState::Done);
    EXPECT_TRUE(distributionsIdentical(server.wait(queued.id).dist,
                                       machine.run(job.prepared, 100, 2)));
    EXPECT_EQ(server.stats().cancelled, 1u);
    EXPECT_EQ(server.sharder()->stats().jobsSharded, 1u);
}

TEST_F(ShardTest, ShutdownCancelsQueuedJobsOnBothLanes)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const JobUnderTest job = denseJob(machine, d);

    ServerOptions opts;
    opts.startPaused = true;
    opts.shard = poolOf(1);
    JobServer server(machine, opts);

    std::vector<JobId> ids;
    for (const bool sharded : {true, false}) {
        const Admission a = server.submit("t", specOf(job, 100, 1, sharded));
        ASSERT_TRUE(a.accepted) << a.reason;
        ids.push_back(a.id);
    }
    server.shutdown();
    for (const JobId id : ids) {
        ASSERT_EQ(server.state(id), JobState::Cancelled);
        EXPECT_EQ(server.wait(id).reason, "server shutdown");
    }
}

TEST_F(ShardTest, ShardedJobQueuedBehindARunningOneReportsQueued)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const JobUnderTest job = denseJob(machine, d);

    FaultConfig cfg;
    cfg.forceAt(FaultSite::LeaseStall, faultKey(0, 0));
    cfg.stallMs = 600;
    FaultInjector::global().configure(cfg);

    // Two compute workers sit idle; the second sharded job must still
    // wait in its lane rather than block one of them inside the
    // executor.
    ServerOptions opts;
    opts.workers = 2;
    opts.startPaused = true;
    opts.shard = poolOf(1);
    opts.shard.heartbeatMs = 10000;
    JobServer server(machine, opts);

    const Admission first = server.submit("t", specOf(job, 100, 1, true));
    const Admission second = server.submit("t", specOf(job, 100, 2, true));
    ASSERT_TRUE(first.accepted) << first.reason;
    ASSERT_TRUE(second.accepted) << second.reason;
    server.start();
    waitWhileQueued(server, first.id);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    // Read the second job first: while the first still runs, the
    // second cannot have been dispatched.
    const JobState secondState = server.state(second.id);
    ASSERT_EQ(server.state(first.id), JobState::Running);
    EXPECT_EQ(secondState, JobState::Queued);

    EXPECT_TRUE(distributionsIdentical(server.wait(first.id).dist,
                                       machine.run(job.prepared, 100, 1)));
    EXPECT_TRUE(distributionsIdentical(server.wait(second.id).dist,
                                       machine.run(job.prepared, 100, 2)));
}

// --------------------------------------------------------- options

TEST_F(ShardTest, ShardOptionsFromEnvRejectsGarbage)
{
    ::setenv("ADAPT_SHARD_WORKERS", "not-a-number", 1);
    ::setenv("ADAPT_SHARD_LEASE_BLOCKS", "-3", 1);
    ::setenv("ADAPT_SHARD_HEARTBEAT_MS", "5", 1); // below floor of 10
    const ShardOptions opts = ShardOptions::fromEnv();
    ::unsetenv("ADAPT_SHARD_WORKERS");
    ::unsetenv("ADAPT_SHARD_LEASE_BLOCKS");
    ::unsetenv("ADAPT_SHARD_HEARTBEAT_MS");
    const ShardOptions defaults;
    EXPECT_EQ(opts.workers, defaults.workers);
    EXPECT_EQ(opts.leaseBlocks, defaults.leaseBlocks);
    EXPECT_EQ(opts.heartbeatMs, defaults.heartbeatMs);
}

TEST_F(ShardTest, InvalidProgrammaticShardOptionsFallBackToDefaults)
{
    // Each value below its knob's floor takes the default (4-block
    // leases, a 1 s heartbeat, 3 attempts, 16 restarts).  Unchecked,
    // a zero lease size never advances the lease loop, a zero
    // heartbeat kills every busy worker as hung, zero attempts
    // quarantine every lease, and a negative restart budget wraps the
    // spawn budget below the pool size.
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const JobUnderTest job = denseJob(machine, d);
    constexpr int kShots = 700;
    ShardOptions opts;
    opts.workers = 2;
    opts.leaseBlocks = 0;
    opts.heartbeatMs = 0;
    opts.maxLeaseAttempts = 0;
    opts.maxRestarts = -1;
    ShardExecutor exec(machine, opts);
    ASSERT_TRUE(exec.available());
    const RunOutcome out =
        exec.runSharded(job.prepared, job.sched, kShots, 5);
    EXPECT_FALSE(out.partial);
    EXPECT_TRUE(distributionsIdentical(
        out.dist, machine.run(job.prepared, kShots, 5)));
    const int64_t blocks = machine.shardBlockCount(job.prepared, kShots);
    const ShardStats s = exec.stats();
    EXPECT_EQ(s.leasesGranted, static_cast<uint64_t>((blocks + 3) / 4));
    EXPECT_EQ(s.workersStalled, 0u);
    EXPECT_EQ(s.leasesQuarantined, 0u);
    EXPECT_EQ(s.workersSpawned, 2u);
}

TEST_F(ShardTest, ShardOptionsFromEnvAcceptsValidKnobs)
{
    ::setenv("ADAPT_SHARD_WORKERS", "4", 1);
    ::setenv("ADAPT_SHARD_LEASE_BLOCKS", "8", 1);
    const ShardOptions opts = ShardOptions::fromEnv();
    ::unsetenv("ADAPT_SHARD_WORKERS");
    ::unsetenv("ADAPT_SHARD_LEASE_BLOCKS");
    EXPECT_EQ(opts.workers, 4);
    EXPECT_EQ(opts.leaseBlocks, 8);
}
