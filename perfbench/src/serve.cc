/**
 * @file
 * serve_mixed: a JobServer (2 workers, 1 thread per job) with a
 * 2-process ShardExecutor behind it, under a closed-loop mixed load
 * from one process:
 *  - three interactive tenants, weights 3/1/1, each keeping kSlots
 *    jobs outstanding (one client thread per outstanding job).  Each
 *    job re-prepares (a program-cache re-bind) one of 20 ibmq_toronto
 *    schedules — the suite's programs except QAOA-10A, each No-DD and
 *    All-DD — and runs it for kInteractiveShots shots;
 *  - one bulk tenant submitting one large-shot job at a time that
 *    carries its schedule, so the server shards it across the worker
 *    processes.
 * One unit is a fixed set of jobs: kJobsPerSlot per interactive client
 * and kBulkJobs bulk jobs, all with seeds derived from --seed.
 */

#include <thread>

#include "dd/sequences.hh"
#include "engine_counters.hh"
#include "serve/job_server.hh"
#include "sim/statevector.hh"
#include "transpile/transpiler.hh"
#include "workloads/benchmarks.hh"

namespace perfbench
{

namespace
{

using namespace adapt;
using namespace adapt::serve;

constexpr int kInteractiveShots = 256;
constexpr int kBulkShots = 32768;
constexpr int kSlots = 4;
constexpr int kJobsPerSlot = 25;
constexpr int kBulkJobs = 3;
constexpr int kShardWorkers = 2;
constexpr int kCheckEvery = 50; //!< every n-th interactive job is re-run
constexpr const char *kBulkProgram = "QPEA-5";

struct Tenant
{
    const char *name;
    int weight;
};
constexpr Tenant kTenants[] = {{"alpha", 3}, {"beta", 1}, {"gamma", 1}};
constexpr int kTenantCount = 3;

struct Program
{
    std::shared_ptr<const ScheduledCircuit> sched;
    Distribution ideal;
};

/** Server, machine and the programs it serves.  Pinned in memory: the
 *  machine refers to the device and the server to the machine. */
struct State
{
    Device device = Device::ibmqToronto();
    NoisyMachine machine{device};
    std::vector<Program> programs; //!< 2 * i = No-DD, 2 * i + 1 = All-DD
    std::shared_ptr<const ScheduledCircuit> bulk;
    PreparedCircuit bulkPrepared;
    std::unique_ptr<JobServer> server;
    double spawnSeconds = 0.0;

    explicit State(const RunConfig &config)
    {
        const Calibration &cal = machine.calibration();
        for (const Workload &w : paperBenchmarks()) {
            if (w.name == "QAOA-10A")
                continue;
            const CompiledProgram p = transpile(w.circuit, device, cal);
            const Distribution ideal = idealDistribution(p.physical);
            programs.push_back(
                {std::make_shared<const ScheduledCircuit>(p.schedule), ideal});
            programs.push_back({std::make_shared<const ScheduledCircuit>(
                                    insertDDAll(p.schedule, cal, DDOptions{})),
                                ideal});
            if (w.name == kBulkProgram)
                bulk = programs[programs.size() - 2].sched;
        }
        for (const Program &p : programs)
            machine.prepare(*p.sched);
        bulkPrepared = machine.prepare(*bulk);

        ServerOptions opts;
        opts.workers = 2;
        opts.threadsPerJob = 1;
        opts.queueDepth = 2 * kSlots;
        opts.shard.workers = kShardWorkers;
        opts.shard.workerBinary = config.workerBinary;
        server = std::make_unique<JobServer>(machine, opts);

        // The shard pool spawns on first use: time that first job.
        JobSpec spec;
        spec.prepared = bulkPrepared;
        spec.shots = kInteractiveShots;
        spec.sched = bulk;
        const int64_t t0 = nowNs();
        const Admission a = server->submit("warmup", std::move(spec));
        if (a.accepted)
            server->wait(a.id);
        spawnSeconds = secondsBetween(t0, nowNs());
    }
};

/** A job kept for the post-run bit-identity check. */
struct Kept
{
    std::shared_ptr<const ScheduledCircuit> sched;
    int shots = 0;
    uint64_t seed = 0;
    Distribution dist;
};

/** What one client thread saw. */
struct ClientLog
{
    std::vector<double> latencyMs;
    std::vector<int> program;
    std::vector<double> prepareMs;
    std::vector<double> fidSum; //!< per program
    std::vector<int> fidCount;
    std::vector<Kept> kept;
    int64_t attempted = 0;
    int64_t failed = 0;
    int64_t shots = 0;
};

struct UnitResult
{
    double wall = 0.0;
    double cpu = 0.0;
    std::vector<ClientLog> clients; //!< interactive, then bulk last
};

bool
jobOk(const JobResult &r, int shots)
{
    return r.state == JobState::Done && !r.partial && r.shotsDone == shots &&
           r.dist.totalSamples() == static_cast<uint64_t>(shots);
}

void
interactiveClient(State &st, const RunConfig &config, int tenant, int slot,
                  ClientLog &log)
{
    for (int k = 0; k < kJobsPerSlot; k++) {
        const int ordinal = (tenant * kSlots + slot) * kJobsPerSlot + k;
        const int prog = ordinal % static_cast<int>(st.programs.size());
        const Program &p = st.programs[static_cast<size_t>(prog)];
        const uint64_t seed =
            deriveSeed(config.seed, 1000000 + static_cast<uint64_t>(ordinal));
        log.attempted++;
        Scope job("job", true);
        JobSpec spec;
        const int64_t p0 = nowNs();
        {
            Scope s("prepare");
            spec.prepared = st.machine.prepare(*p.sched);
        }
        const int64_t t0 = nowNs();
        spec.shots = kInteractiveShots;
        spec.seed = seed;
        Admission a;
        {
            Scope s("submit");
            a = st.server->submit(kTenants[tenant].name, std::move(spec),
                                  kTenants[tenant].weight);
        }
        if (!a.accepted) {
            log.failed++;
            continue;
        }
        JobResult r;
        {
            Scope s("wait");
            r = st.server->wait(a.id);
        }
        const int64_t t1 = nowNs();
        st.server->release(a.id);
        if (!jobOk(r, kInteractiveShots)) {
            log.failed++;
            continue;
        }
        log.shots += r.shotsDone;
        log.latencyMs.push_back(1e3 * secondsBetween(t0, t1));
        log.prepareMs.push_back(1e3 * secondsBetween(p0, t0));
        log.program.push_back(prog);
        log.fidSum[static_cast<size_t>(prog)] += fidelity(p.ideal, r.dist);
        log.fidCount[static_cast<size_t>(prog)]++;
        if (ordinal % kCheckEvery == 0)
            log.kept.push_back({p.sched, kInteractiveShots, seed, r.dist});
    }
}

void
bulkClient(State &st, const RunConfig &config, ClientLog &log)
{
    for (int b = 0; b < kBulkJobs; b++) {
        const uint64_t seed =
            deriveSeed(config.seed, 2000000 + static_cast<uint64_t>(b));
        log.attempted++;
        Scope job("bulk", true);
        JobSpec spec;
        spec.prepared = st.bulkPrepared;
        spec.shots = kBulkShots;
        spec.seed = seed;
        spec.sched = st.bulk;
        const int64_t t0 = nowNs();
        Admission a;
        {
            Scope s("submit");
            a = st.server->submit("bulk", std::move(spec));
        }
        if (!a.accepted) {
            log.failed++;
            continue;
        }
        JobResult r;
        {
            Scope s("wait");
            r = st.server->wait(a.id);
        }
        const int64_t t1 = nowNs();
        st.server->release(a.id);
        if (!jobOk(r, kBulkShots)) {
            log.failed++;
            continue;
        }
        log.shots += r.shotsDone;
        log.latencyMs.push_back(1e3 * secondsBetween(t0, t1));
        log.kept.push_back({st.bulk, kBulkShots, seed, r.dist});
    }
}

/** CPU of this process plus the shard workers (live and reaped). */
double
totalCpu(const State &st)
{
    double cpu = selfCpuSeconds() + childCpuSeconds();
    if (const ShardExecutor *sharder = st.server->sharder()) {
        for (int pid : sharder->workerPids())
            cpu += pidCpuSeconds(pid);
    }
    return cpu;
}

UnitResult
runUnit(State &st, const RunConfig &config)
{
    UnitResult u;
    u.clients.resize(kTenantCount * kSlots + 1);
    for (ClientLog &log : u.clients) {
        log.fidSum.assign(st.programs.size(), 0.0);
        log.fidCount.assign(st.programs.size(), 0);
    }
    const double cpu0 = totalCpu(st);
    const int64_t t0 = nowNs();
    std::vector<std::thread> threads;
    for (int t = 0; t < kTenantCount; t++) {
        for (int s = 0; s < kSlots; s++) {
            threads.emplace_back(interactiveClient, std::ref(st),
                                 std::cref(config), t, s,
                                 std::ref(u.clients[static_cast<size_t>(
                                     t * kSlots + s)]));
        }
    }
    threads.emplace_back(bulkClient, std::ref(st), std::cref(config),
                         std::ref(u.clients.back()));
    for (std::thread &t : threads)
        t.join();
    u.wall = secondsBetween(t0, nowNs());
    u.cpu = totalCpu(st) - cpu0;
    return u;
}

/** All-DD over No-DD mean fidelity, geometric mean over programs. */
double
ddGain(const UnitResult &u, size_t programs)
{
    std::vector<double> sum(programs, 0.0);
    std::vector<int> count(programs, 0);
    for (size_t c = 0; c + 1 < u.clients.size(); c++) {
        for (size_t p = 0; p < programs; p++) {
            sum[p] += u.clients[c].fidSum[p];
            count[p] += u.clients[c].fidCount[p];
        }
    }
    std::vector<double> gains;
    for (size_t p = 0; p + 1 < programs; p += 2)
        gains.push_back((sum[p + 1] / count[p + 1]) / (sum[p] / count[p]));
    return adapt::geometricMean(gains);
}

bool
sameDistribution(const Distribution &a, const Distribution &b)
{
    return a.totalSamples() == b.totalSamples() &&
           a.probabilities() == b.probabilities();
}

/** Isolated one-thread service time (ms) of each program at the
 *  interactive shot count, median of three; engine counters on the
 *  side. */
std::vector<double>
serviceTimes(const State &st, EngineCounters &engine)
{
    std::vector<double> svc;
    for (const Program &p : st.programs) {
        const PreparedCircuit prepared = st.machine.prepare(*p.sched);
        std::vector<double> times;
        for (uint64_t rep = 0; rep < 3; rep++) {
            const int64_t t0 = nowNs();
            const RunOutcome r = st.machine.runPartial(
                prepared, kInteractiveShots, rep + 1, 1, RunControl{});
            const double seconds = secondsBetween(t0, nowNs());
            engine.add({&prepared, 1}, {&r, 1}, seconds);
            times.push_back(1e3 * seconds);
        }
        svc.push_back(median(times));
    }
    return svc;
}

} // namespace

Outcome
runServe(const RunConfig &config)
{
    Outcome out;
    std::unique_ptr<State> st;
    out.metrics["setup_s"] = medianSetupSeconds(
        9,
        [&] {
            st.reset();
            coldCache();
        },
        [&] { st = std::make_unique<State>(config); });
    const ShardExecutor *sharder = st->server->sharder();
    out.check(sharder != nullptr && sharder->available(),
              "no shard worker pool: bulk jobs would run in-process");
    if (!out.problems.empty())
        return out;
    const ServerStats server0 = st->server->stats();
    const ShardStats shard0 = sharder->stats();

    // p99 needs 1000 interactive samples: an untraced run holds at
    // least that many, a traced run pools both of its halves.
    const int per_unit = kTenantCount * kSlots * kJobsPerSlot;
    const int min_units = (1000 + per_unit - 1) / per_unit;
    std::vector<UnitResult> units;
    repeatFor(untracedShare(config), config.trace ? (min_units + 1) / 2 : min_units,
              [&](int) {
        units.push_back(runUnit(*st, config));
    });

    std::vector<UnitResult> traced;
    CacheWatch cache;
    ShardStats shard_traced0;
    if (config.trace) {
        shard_traced0 = sharder->stats();
        clearSpans();
        setTracing(true);
        repeatFor(config.seconds / 2.0, (min_units + 1) / 2, [&](int) {
            traced.push_back(runUnit(*st, config));
        });
        setTracing(false);
    }
    const ShardStats shard1 = sharder->stats();
    const ServerStats server1 = st->server->stats();

    // Output checks over every unit.
    std::vector<double> walls, traced_walls, cpus, latency, prepare_ms,
        bulk_ms, shot_rates, job_rates, bulk_rates;
    std::vector<int> latency_program;
    std::vector<const Kept *> kept;
    for (const auto *set : {&units, &traced}) {
        for (const UnitResult &u : *set) {
            (set == &units ? walls : traced_walls).push_back(u.wall);
            int64_t shots = 0, jobs = 0, bulk_shots = 0;
            double bulk_busy = 0.0;
            for (size_t c = 0; c < u.clients.size(); c++) {
                const ClientLog &log = u.clients[c];
                out.attempted += log.attempted;
                out.failed += log.failed;
                shots += log.shots;
                jobs += static_cast<int64_t>(log.latencyMs.size());
                for (const Kept &k : log.kept)
                    kept.push_back(&k);
                if (c + 1 == u.clients.size()) {
                    bulk_shots = log.shots;
                    for (double ms : log.latencyMs)
                        bulk_busy += 1e-3 * ms;
                    bulk_ms.insert(bulk_ms.end(), log.latencyMs.begin(),
                                   log.latencyMs.end());
                    continue;
                }
                latency.insert(latency.end(), log.latencyMs.begin(),
                               log.latencyMs.end());
                latency_program.insert(latency_program.end(),
                                       log.program.begin(), log.program.end());
                prepare_ms.insert(prepare_ms.end(), log.prepareMs.begin(),
                                  log.prepareMs.end());
            }
            if (set == &units) {
                cpus.push_back(u.cpu);
                shot_rates.push_back(static_cast<double>(shots) / u.wall);
                job_rates.push_back(static_cast<double>(jobs) / u.wall);
                bulk_rates.push_back(static_cast<double>(bulk_shots) /
                                     bulk_busy);
            }
        }
    }
    if (out.failed > 0)
        return out;

    const size_t n_prog = st->programs.size();
    const double gain = ddGain(units.front(), n_prog);
    for (const auto *set : {&units, &traced}) {
        for (const UnitResult &u : *set)
            out.check(ddGain(u, n_prog) == gain,
                      "job outputs differ between units of one run");
    }
    for (const Kept *k : kept) {
        const Distribution ref = st->machine.run(*k->sched, k->shots, k->seed);
        if (!sameDistribution(ref, k->dist)) {
            out.failed++;
            out.check(false, "a served job differs from machine.run");
        }
    }
    out.info["units"] = static_cast<double>(units.size());
    out.info["job_samples"] = static_cast<double>(latency.size());
    out.info["checked_jobs"] = static_cast<double>(kept.size());

    const double wall = median(walls);
    if (!config.trace) {
        out.check(percentileSupported(static_cast<int64_t>(latency.size()), 99),
                  "fewer than 1000 interactive jobs: p99 is not supported");
        out.metrics["wall_s"] = wall;
        out.metrics["cpu_s"] = median(cpus);
        out.metrics["peak_rss_mb"] = peakRssMb();
        out.metrics["adapt_gmean_rel"] = gain;
        out.metrics["shots_per_s"] = median(shot_rates);
        out.metrics["jobs_per_s"] = median(job_rates);
        out.metrics["job_p50_ms"] = percentile(latency, 50);
        out.metrics["job_p99_ms"] = percentile(latency, 99);
        out.metrics["bulk_shots_per_s"] = median(bulk_rates);
        return out;
    }

    const std::vector<Span> spans = collectSpans();
    dumpSpans(config, spans);
    addTraceMetrics(out, spans, static_cast<int>(traced.size()),
                    median(traced_walls), wall);
    out.metrics["cache.hit_ratio"] = cache.hitRatio();
    out.metrics["pool.busy_frac"] =
        median(cpus) / (wall * static_cast<double>(config.threads));
    out.metrics["client.prepare_ms_p50"] = percentile(prepare_ms, 50);

    EngineCounters engine;
    const std::vector<double> svc = serviceTimes(*st, engine);
    engine.report(out);
    std::vector<double> job_svc, wait;
    for (size_t i = 0; i < latency.size(); i++) {
        const double s = svc[static_cast<size_t>(latency_program[i])];
        job_svc.push_back(s);
        wait.push_back(latency[i] - s);
    }
    out.metrics["svc.ms_p50"] = percentile(job_svc, 50);
    out.metrics["server.wait_ms_p50"] = percentile(wait, 50);
    out.metrics["server.wait_ms_p99"] = percentile(wait, 99);
    out.metrics["server.rejected"] =
        static_cast<double>(server1.rejected - server0.rejected);
    out.metrics["server.retried"] =
        static_cast<double>(server1.retried - server0.retried);

    const auto traced_units = static_cast<double>(traced.size());
    const double leases = static_cast<double>(shard1.leasesCompleted -
                                              shard_traced0.leasesCompleted);
    double traced_bulk_ms = 0.0;
    for (const UnitResult &u : traced) {
        for (double ms : u.clients.back().latencyMs)
            traced_bulk_ms += ms;
    }
    out.metrics["shard.leases"] =
        static_cast<double>(shard1.leasesGranted - shard_traced0.leasesGranted) /
        traced_units;
    out.metrics["shard.reassigned"] =
        static_cast<double>(shard1.leasesReassigned - shard0.leasesReassigned);
    out.metrics["shard.ms_per_lease"] =
        ratio(traced_bulk_ms * kShardWorkers, leases);
    const int64_t b0 = nowNs();
    st->machine.runPartial(st->bulkPrepared, kBulkShots, 1, 1, RunControl{});
    const double inproc_ms = 1e3 * secondsBetween(b0, nowNs());
    out.metrics["shard.efficiency"] =
        inproc_ms / (median(bulk_ms) * kShardWorkers);
    out.metrics["shard.spawn_s"] = st->spawnSeconds;
    return out;
}

} // namespace perfbench
