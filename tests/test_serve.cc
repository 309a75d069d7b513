/**
 * @file
 * Serving-layer suite: the cancellable execution contract
 * (runPartial / runBatchPartial) and the JobServer built on it.
 *
 * The locks, mirroring the degradation semantics the server
 * documents:
 *  - quiet controls are bit-identical to run() (the historical path);
 *  - a stop request yields a flagged partial histogram whose
 *    completed blocks are bit-identical to an uninterrupted run's
 *    prefix — asserted as exact equality against
 *    run(prepared, shotsDone, seed);
 *  - admission control rejects with a reason instead of blocking
 *    (full tenant queues, tenant limit, invalid specs, shutdown);
 *  - weighted round-robin dispatch bounds how long a flooding tenant
 *    can delay anyone else (asserted on finishSeq);
 *  - deadlines expire jobs, cancel() stops them, shutdown() drains
 *    deterministically.
 *
 * Everything here is timing-robust: exact-prefix assertions cancel
 * from the run's own progress hook (same thread, deterministic wave),
 * and wall-clock tests only assert direction (partial vs. done), not
 * counts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "dd/sequences.hh"
#include "noise/machine.hh"
#include "serve/fault.hh"
#include "serve/job_server.hh"
#include "sim/frame_batch.hh"
#include "test_util.hh"
#include "transpile/transpiler.hh"
#include "transpile/decompose.hh"
#include "transpile/schedule.hh"
#include "workloads/benchmarks.hh"

using namespace adapt;
using namespace adapt::serve;
using namespace adapt::testutil;
using namespace std::chrono_literals;

namespace
{

/** Small dense job (state-vector path, per-shot streams). */
PreparedCircuit
denseJob(const NoisyMachine &machine, const Device &device)
{
    const CompiledProgram p =
        transpile(makeQft(4, QftState::A), device,
                  device.calibration(0));
    return machine.prepare(p.schedule);
}

/** Clifford job routed to the batched Pauli-frame engine. */
PreparedCircuit
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
    const ScheduledCircuit sched =
        schedule(decompose(c), device.topology(),
                 device.calibration(0), ScheduleMode::Alap);
    return machine.prepare(sched, BackendKind::Stabilizer);
}

/** Disarm the global fault harness around every test in this file. */
class ServeTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::global().reset(); }
    void TearDown() override { FaultInjector::global().reset(); }
};

} // namespace

// ------------------------------------------------------- runPartial

TEST_F(ServeTest, QuietControlIsBitIdenticalToRun)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);
    constexpr int kShots = 600;

    const Distribution reference = machine.run(prepared, kShots, 5);
    for (int threads : {1, 4, 0}) {
        const RunOutcome out =
            machine.runPartial(prepared, kShots, 5, threads);
        EXPECT_FALSE(out.partial);
        EXPECT_EQ(out.cause, StopCause::None);
        EXPECT_EQ(out.shotsDone, kShots);
        EXPECT_TRUE(distributionsIdentical(out.dist, reference))
            << "threads=" << threads;
    }
}

TEST_F(ServeTest, ProgressReportsMonotoneCumulativeShots)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);
    constexpr int kShots = 500;

    std::vector<int64_t> seen;
    RunControl ctl;
    ctl.progress = [&](int64_t shots_done) {
        seen.push_back(shots_done);
    };
    const RunOutcome out =
        machine.runPartial(prepared, kShots, 5, 2, ctl);
    EXPECT_FALSE(out.partial);
    ASSERT_FALSE(seen.empty());
    for (size_t i = 1; i < seen.size(); i++)
        EXPECT_GT(seen[i], seen[i - 1]);
    EXPECT_EQ(seen.back(), kShots);

    // A progress hook alone (no armed token) must not change the
    // output.
    EXPECT_TRUE(distributionsIdentical(
        out.dist, machine.run(prepared, kShots, 5)));
}

TEST_F(ServeTest, CancelFromProgressGivesExactPrefixDense)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);
    constexpr int kShots = 1500;

    for (int threads : {1, 4}) {
        CancellationSource source;
        RunControl ctl;
        ctl.token = source.token();
        int waves = 0;
        ctl.progress = [&](int64_t) {
            if (++waves == 2)
                source.cancel();
        };
        const RunOutcome out =
            machine.runPartial(prepared, kShots, 9, threads, ctl);
        ASSERT_TRUE(out.partial) << "threads=" << threads;
        EXPECT_EQ(out.cause, StopCause::Cancelled);
        EXPECT_GT(out.shotsDone, 0);
        EXPECT_LT(out.shotsDone, kShots);
        // The committed prefix replays exactly as a shorter run.
        const Distribution prefix = machine.run(
            prepared, static_cast<int>(out.shotsDone), 9);
        EXPECT_TRUE(distributionsIdentical(out.dist, prefix))
            << "threads=" << threads;
        source = CancellationSource();
    }
}

TEST_F(ServeTest, CancelFromProgressGivesExactPrefixFrameBatch)
{
    const Device d = Device::synthetic(Topology::linear(4), 21);
    const NoisyMachine machine(d, 0, NoiseFlags::pauliOnly());
    const PreparedCircuit prepared = frameJob(machine, d);
    ASSERT_TRUE(prepared.frameBatched());
    constexpr int kShots = 40000; // many kFrameLanes blocks

    for (int threads : {1, 4}) {
        CancellationSource source;
        RunControl ctl;
        ctl.token = source.token();
        int waves = 0;
        ctl.progress = [&](int64_t) {
            if (++waves == 2)
                source.cancel();
        };
        const RunOutcome out =
            machine.runPartial(prepared, kShots, 33, threads, ctl);
        ASSERT_TRUE(out.partial) << "threads=" << threads;
        EXPECT_EQ(out.cause, StopCause::Cancelled);
        EXPECT_GT(out.shotsDone, 0);
        EXPECT_LT(out.shotsDone, kShots);
        EXPECT_EQ(out.shotsDone % kFrameLanes, 0)
            << "frame path commits whole blocks";
        const Distribution prefix = machine.run(
            prepared, static_cast<int>(out.shotsDone), 33);
        EXPECT_TRUE(distributionsIdentical(out.dist, prefix))
            << "threads=" << threads;
    }
}

TEST_F(ServeTest, PreStoppedTokenRunsNothing)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);

    CancellationSource source;
    source.cancel();
    RunControl ctl;
    ctl.token = source.token();
    const RunOutcome cancelled =
        machine.runPartial(prepared, 100, 1, 1, ctl);
    EXPECT_TRUE(cancelled.partial);
    EXPECT_EQ(cancelled.cause, StopCause::Cancelled);
    EXPECT_EQ(cancelled.shotsDone, 0);
    EXPECT_EQ(cancelled.dist.totalSamples(), 0u);

    RunControl expired;
    expired.token =
        CancellationToken{}.withTimeout(std::chrono::milliseconds(0));
    const RunOutcome timed =
        machine.runPartial(prepared, 100, 1, 1, expired);
    EXPECT_TRUE(timed.partial);
    EXPECT_EQ(timed.cause, StopCause::Deadline);
    EXPECT_EQ(timed.shotsDone, 0);
}

TEST_F(ServeTest, RunBatchPartialQuietMatchesRunBatch)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const std::vector<PreparedCircuit> jobs(4, denseJob(machine, d));
    const std::vector<uint64_t> seeds = {11, 12, 13, 14};
    constexpr int kShots = 300;

    const std::vector<Distribution> reference =
        machine.runBatch(jobs, kShots, seeds, 2);
    const std::vector<RunOutcome> outcomes = machine.runBatchPartial(
        jobs, kShots, seeds, 2, RunControl{});
    ASSERT_EQ(outcomes.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); i++) {
        EXPECT_FALSE(outcomes[i].partial) << i;
        EXPECT_TRUE(distributionsIdentical(outcomes[i].dist,
                                           reference[i]))
            << i;
    }
}

TEST_F(ServeTest, RunBatchPartialPreStoppedTokenSkipsEveryJob)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const std::vector<PreparedCircuit> jobs(3, denseJob(machine, d));
    const std::vector<uint64_t> seeds = {1, 2, 3};

    CancellationSource source;
    source.cancel();
    RunControl ctl;
    ctl.token = source.token();
    const std::vector<RunOutcome> outcomes =
        machine.runBatchPartial(jobs, 200, seeds, 2, ctl);
    for (const RunOutcome &out : outcomes) {
        EXPECT_TRUE(out.partial);
        EXPECT_EQ(out.cause, StopCause::Cancelled);
        EXPECT_EQ(out.shotsDone, 0);
    }
}

// -------------------------------------------------------- JobServer

TEST_F(ServeTest, ServerRunsJobsBitIdenticalToDirectRuns)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);
    constexpr int kShots = 400;

    ServerOptions opts;
    opts.workers = 2;
    JobServer server(machine, opts);

    std::vector<JobId> ids;
    for (uint64_t seed = 50; seed < 56; seed++) {
        JobSpec spec;
        spec.prepared = prepared;
        spec.shots = kShots;
        spec.seed = seed;
        const Admission adm =
            server.submit("tenant-" + std::to_string(seed % 2), spec);
        ASSERT_TRUE(adm.accepted) << adm.reason;
        ids.push_back(adm.id);
    }
    for (size_t i = 0; i < ids.size(); i++) {
        const JobResult result = server.wait(ids[i]);
        EXPECT_EQ(result.state, JobState::Done);
        EXPECT_FALSE(result.partial);
        EXPECT_EQ(result.shotsDone, kShots);
        EXPECT_EQ(result.attempts, 1);
        EXPECT_GT(result.finishSeq, 0u);
        EXPECT_TRUE(distributionsIdentical(
            result.dist, machine.run(prepared, kShots, 50 + i)))
            << "job " << i;
    }
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.submitted, 6u);
    EXPECT_EQ(stats.accepted, 6u);
    EXPECT_EQ(stats.completed, 6u);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.retried, 0u);
}

TEST_F(ServeTest, AdmissionRejectsInvalidSpecsWithReasons)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);
    JobServer server(machine, ServerOptions{});

    JobSpec empty;
    empty.shots = 100;
    const Admission a = server.submit("t", empty);
    EXPECT_FALSE(a.accepted);
    EXPECT_NE(a.reason.find("PreparedCircuit"), std::string::npos);

    JobSpec zero;
    zero.prepared = prepared;
    zero.shots = 0;
    const Admission b = server.submit("t", zero);
    EXPECT_FALSE(b.accepted);
    EXPECT_NE(b.reason.find("shots"), std::string::npos);

    JobSpec ok;
    ok.prepared = prepared;
    ok.shots = 10;
    const Admission c = server.submit("", ok);
    EXPECT_FALSE(c.accepted);
    EXPECT_NE(c.reason.find("tenant"), std::string::npos);

    EXPECT_EQ(server.stats().rejected, 3u);
    EXPECT_EQ(server.stats().accepted, 0u);
}

TEST_F(ServeTest, FullTenantQueueRejectsWithoutBlocking)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);

    ServerOptions opts;
    opts.workers = 1;
    opts.queueDepth = 2;
    opts.startPaused = true; // nothing dispatches; queue must fill
    JobServer server(machine, opts);

    JobSpec spec;
    spec.prepared = prepared;
    spec.shots = 50;
    const Admission a = server.submit("flood", spec);
    const Admission b = server.submit("flood", spec);
    const Admission c = server.submit("flood", spec);
    EXPECT_TRUE(a.accepted);
    EXPECT_TRUE(b.accepted);
    EXPECT_FALSE(c.accepted);
    EXPECT_NE(c.reason.find("queue full"), std::string::npos);

    // Other tenants still have room.
    const Admission other = server.submit("light", spec);
    EXPECT_TRUE(other.accepted);

    // The rejection did not wedge anything: the accepted jobs run.
    server.start();
    EXPECT_EQ(server.wait(a.id).state, JobState::Done);
    EXPECT_EQ(server.wait(b.id).state, JobState::Done);
    EXPECT_EQ(server.wait(other.id).state, JobState::Done);
    EXPECT_EQ(server.stats().rejected, 1u);
}

TEST_F(ServeTest, TenantLimitRejects)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);

    ServerOptions opts;
    opts.maxTenants = 1;
    opts.startPaused = true;
    JobServer server(machine, opts);

    JobSpec spec;
    spec.prepared = prepared;
    spec.shots = 10;
    EXPECT_TRUE(server.submit("a", spec).accepted);
    const Admission rejected = server.submit("b", spec);
    EXPECT_FALSE(rejected.accepted);
    EXPECT_NE(rejected.reason.find("tenant limit"),
              std::string::npos);
    EXPECT_TRUE(server.submit("a", spec).accepted);
    server.start();
    server.drain();
}

TEST_F(ServeTest, CancelQueuedJobFinalizesImmediately)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);

    ServerOptions opts;
    opts.startPaused = true;
    JobServer server(machine, opts);

    JobSpec spec;
    spec.prepared = prepared;
    spec.shots = 100;
    const Admission adm = server.submit("t", spec);
    ASSERT_TRUE(adm.accepted);
    EXPECT_EQ(server.state(adm.id), JobState::Queued);
    EXPECT_TRUE(server.cancel(adm.id));
    EXPECT_EQ(server.state(adm.id), JobState::Cancelled);
    EXPECT_FALSE(server.cancel(adm.id)) << "already terminal";

    const JobResult result = server.wait(adm.id);
    EXPECT_EQ(result.state, JobState::Cancelled);
    EXPECT_TRUE(result.partial);
    EXPECT_EQ(result.shotsDone, 0);
    EXPECT_EQ(result.dist.totalSamples(), 0u);
    EXPECT_NE(result.reason.find("queued"), std::string::npos);

    // A cancelled queued job must not hold up drain().
    server.start();
    server.drain();
    EXPECT_EQ(server.stats().cancelled, 1u);
}

TEST_F(ServeTest, CancelRunningJobDeliversExactPrefix)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);
    constexpr int kShots = 400000; // far more than runs before cancel

    ServerOptions opts;
    opts.workers = 1;
    JobServer server(machine, opts);

    JobSpec spec;
    spec.prepared = prepared;
    spec.shots = kShots;
    spec.seed = 77;
    const Admission adm = server.submit("t", spec);
    ASSERT_TRUE(adm.accepted);

    // Wait until the job has demonstrably committed work, then pull
    // the plug.
    while (server.shotsDone(adm.id) == 0)
        std::this_thread::sleep_for(1ms);
    EXPECT_TRUE(server.cancel(adm.id));

    const JobResult result = server.wait(adm.id);
    ASSERT_EQ(result.state, JobState::Cancelled);
    EXPECT_TRUE(result.partial);
    EXPECT_GT(result.shotsDone, 0);
    EXPECT_LT(result.shotsDone, kShots);
    EXPECT_TRUE(distributionsIdentical(
        result.dist,
        machine.run(prepared, static_cast<int>(result.shotsDone),
                    77)));
}

TEST_F(ServeTest, DeadlineExpiresJobWithFlaggedPartialPrefix)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);
    constexpr int kShots = 400000; // cannot finish inside the deadline

    ServerOptions opts;
    opts.workers = 1;
    JobServer server(machine, opts);

    JobSpec spec;
    spec.prepared = prepared;
    spec.shots = kShots;
    spec.seed = 91;
    spec.timeout = 150ms;
    const Admission adm = server.submit("t", spec);
    ASSERT_TRUE(adm.accepted);

    const JobResult result = server.wait(adm.id);
    ASSERT_EQ(result.state, JobState::Expired);
    EXPECT_TRUE(result.partial);
    EXPECT_EQ(result.attempts, 1);
    EXPECT_LT(result.shotsDone, kShots);
    EXPECT_NE(result.reason.find("deadline"), std::string::npos);
    if (result.shotsDone > 0) {
        EXPECT_TRUE(distributionsIdentical(
            result.dist,
            machine.run(prepared, static_cast<int>(result.shotsDone),
                        91)));
    }
    EXPECT_EQ(server.stats().expired, 1u);
}

TEST_F(ServeTest, FloodingTenantCannotStarveOthers)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);

    ServerOptions opts;
    opts.workers = 1; // serial dispatch: finishSeq == dispatch order
    opts.queueDepth = 64;
    opts.startPaused = true;
    JobServer server(machine, opts);

    JobSpec spec;
    spec.prepared = prepared;
    spec.shots = 40;

    std::vector<JobId> flood;
    for (int i = 0; i < 20; i++)
        flood.push_back(server.submit("flood", spec).id);
    std::vector<JobId> light;
    for (int i = 0; i < 2; i++)
        light.push_back(server.submit("light", spec).id);

    server.start();
    server.drain();

    // Equal weights: round-robin interleaves the two tenants, so the
    // k-th light job completes within the first 2k+1 finishes even
    // though 20 flood jobs were queued ahead of it.
    for (size_t k = 0; k < light.size(); k++) {
        const JobResult result = server.wait(light[k]);
        EXPECT_EQ(result.state, JobState::Done);
        EXPECT_LE(result.finishSeq, 2 * (k + 1) + 1)
            << "light job " << k << " was starved";
    }
    for (const JobId id : flood)
        EXPECT_EQ(server.wait(id).state, JobState::Done);
}

TEST_F(ServeTest, WeightsBiasDispatchProportionally)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);

    ServerOptions opts;
    opts.workers = 1;
    opts.startPaused = true;
    JobServer server(machine, opts);

    JobSpec spec;
    spec.prepared = prepared;
    spec.shots = 40;

    std::vector<JobId> heavy, light;
    for (int i = 0; i < 9; i++)
        heavy.push_back(server.submit("heavy", spec, 3).id);
    for (int i = 0; i < 3; i++)
        light.push_back(server.submit("light", spec, 1).id);

    server.start();
    server.drain();

    // Weight 3:1 — each window of 4 completions carries ~3 heavy and
    // ~1 light, so the k-th light job lands by roughly finish 4(k+1).
    for (size_t k = 0; k < light.size(); k++) {
        EXPECT_LE(server.wait(light[k]).finishSeq, 4 * (k + 1) + 1)
            << "light job " << k;
    }
    // And the flood still gets its share: all heavy jobs complete.
    for (const JobId id : heavy)
        EXPECT_EQ(server.wait(id).state, JobState::Done);
}

TEST_F(ServeTest, ShutdownCancelsQueuedJobsAndRejectsNewOnes)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);

    ServerOptions opts;
    opts.startPaused = true;
    JobServer server(machine, opts);

    JobSpec spec;
    spec.prepared = prepared;
    spec.shots = 100;
    std::vector<JobId> ids;
    for (int i = 0; i < 3; i++)
        ids.push_back(server.submit("t", spec).id);

    server.shutdown();
    for (const JobId id : ids) {
        const JobResult result = server.wait(id);
        EXPECT_EQ(result.state, JobState::Cancelled);
        EXPECT_NE(result.reason.find("shutdown"), std::string::npos);
    }
    const Admission late = server.submit("t", spec);
    EXPECT_FALSE(late.accepted);
    EXPECT_NE(late.reason.find("shutting down"), std::string::npos);
}

TEST_F(ServeTest, ReleaseDropsOnlyTerminalJobs)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);

    ServerOptions opts;
    opts.startPaused = true;
    JobServer server(machine, opts);

    JobSpec spec;
    spec.prepared = prepared;
    spec.shots = 50;
    const Admission adm = server.submit("t", spec);
    EXPECT_FALSE(server.release(adm.id)) << "still queued";
    server.start();
    server.wait(adm.id);
    EXPECT_TRUE(server.release(adm.id));
    EXPECT_THROW(server.state(adm.id), UsageError);
    EXPECT_FALSE(server.release(adm.id));
    EXPECT_FALSE(server.cancel(adm.id));
}

TEST_F(ServeTest, UnknownJobIdsThrow)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    JobServer server(machine, ServerOptions{});
    EXPECT_THROW(server.state(999), UsageError);
    EXPECT_THROW(server.wait(999), UsageError);
    EXPECT_THROW(server.shotsDone(999), UsageError);
    EXPECT_FALSE(server.cancel(999));
}

TEST_F(ServeTest, TenantStatsCount)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);

    ServerOptions opts;
    opts.queueDepth = 1;
    opts.startPaused = true;
    JobServer server(machine, opts);

    JobSpec spec;
    spec.prepared = prepared;
    spec.shots = 20;
    EXPECT_TRUE(server.submit("a", spec).accepted);
    EXPECT_FALSE(server.submit("a", spec).accepted); // queue full
    EXPECT_TRUE(server.submit("b", spec).accepted);
    server.start();
    server.drain();

    const TenantStats a = server.tenantStats("a");
    EXPECT_EQ(a.submitted, 2u);
    EXPECT_EQ(a.accepted, 1u);
    EXPECT_EQ(a.rejected, 1u);
    EXPECT_EQ(a.completed, 1u);
    const TenantStats b = server.tenantStats("b");
    EXPECT_EQ(b.accepted, 1u);
    EXPECT_EQ(server.tenantStats("nobody").submitted, 0u);
}

// ---------------------------------------------- ServerOptions::fromEnv

TEST_F(ServeTest, ServerOptionsFromEnvParsesAndFallsBack)
{
    setenv("ADAPT_SERVER_WORKERS", "7", 1);
    setenv("ADAPT_SERVER_QUEUE_DEPTH", "11", 1);
    setenv("ADAPT_SERVER_TIMEOUT_MS", "250", 1);
    setenv("ADAPT_SERVER_MAX_RETRIES", "garbage", 1); // warns, default
    setenv("ADAPT_SERVER_BACKOFF_MS", "-3", 1);       // warns, default
    const ServerOptions opts = ServerOptions::fromEnv();
    unsetenv("ADAPT_SERVER_WORKERS");
    unsetenv("ADAPT_SERVER_QUEUE_DEPTH");
    unsetenv("ADAPT_SERVER_TIMEOUT_MS");
    unsetenv("ADAPT_SERVER_MAX_RETRIES");
    unsetenv("ADAPT_SERVER_BACKOFF_MS");

    EXPECT_EQ(opts.workers, 7);
    EXPECT_EQ(opts.queueDepth, 11);
    EXPECT_EQ(opts.defaultTimeout, 250ms);
    EXPECT_EQ(opts.maxRetries, ServerOptions{}.maxRetries);
    EXPECT_EQ(opts.backoffBase, ServerOptions{}.backoffBase);
}

TEST_F(ServeTest, InvalidProgrammaticOptionsFallBackToDefaults)
{
    const Device d = Device::ibmqRome();
    const NoisyMachine machine(d);
    const PreparedCircuit prepared = denseJob(machine, d);

    // Programmatic options bypass fromEnv()'s range checks; a zero or
    // negative pool / queue depth / tenant limit must warn and fall
    // back to the documented defaults (not deadlock, not reject
    // everything).
    ServerOptions opts;
    opts.workers = 0;
    opts.queueDepth = -5;
    opts.maxTenants = 0;
    JobServer server(machine, opts);

    JobSpec spec;
    spec.prepared = prepared;
    spec.shots = 200;
    spec.seed = 3;
    const Admission adm = server.submit("tenant", std::move(spec));
    ASSERT_TRUE(adm.accepted) << adm.reason;
    const JobResult result = server.wait(adm.id);
    EXPECT_EQ(result.state, JobState::Done);
    EXPECT_TRUE(distributionsIdentical(
        result.dist, machine.run(prepared, 200, 3)));

    // The fallback queue depth is the real default, not 1: a burst of
    // default-depth submissions is admitted without rejections.
    std::vector<JobId> ids;
    for (int i = 0; i < ServerOptions{}.queueDepth; i++) {
        JobSpec burst;
        burst.prepared = prepared;
        burst.shots = 60;
        burst.seed = 100 + static_cast<uint64_t>(i);
        const Admission a = server.submit("burst", std::move(burst));
        ASSERT_TRUE(a.accepted) << "submission " << i << ": "
                                << a.reason;
        ids.push_back(a.id);
    }
    for (const JobId id : ids)
        EXPECT_EQ(server.wait(id).state, JobState::Done);
}
