/**
 * @file
 * frame_char_100q: chip-wide DD-efficacy characterization in the style
 * of Figs. 4/5 on a synthetic 10x10 grid under Pauli-only noise, run
 * on the batch Pauli-frame engine.
 *
 * One unit is four calibration cycles.  Each cycle re-schedules and
 * re-prepares (re-binding through the program cache) and runs four
 * jobs through runPartial:
 *  - bare100: every qubit excited to |1>, idled, read out;
 *  - dd100:   the same idle, XY4-padded by insertDDAll;
 *  - tail20:  20 qubits in |+>, idled XY4-padded, read out in the X
 *             basis: T1 fires on superposed qubits, so most lanes
 *             finish on branch tails;
 *  - bare20:  the tail20 circuit without DD, the baseline of the
 *             XY4 efficacy ratio reported as adapt_gmean_rel.
 */

#include <array>
#include <bit>
#include <optional>

#include "dd/sequences.hh"
#include "engine_counters.hh"
#include "transpile/decompose.hh"
#include "transpile/schedule.hh"

namespace perfbench
{

namespace
{

using namespace adapt;

constexpr int kCycles = 4;
constexpr TimeNs kIdleNs = 20000.0;

/**
 * Threads per job: two, fewer than the hardware threads.  On shared
 * vCPUs a fork-join over all of them waits on whichever vCPU the host
 * preempts, so at four threads wall time moved 2-3x between runs while
 * CPU time stayed steady; one thread follows the speed of the single
 * vCPU it lands on.  Two spread least of the three between runs.
 */
constexpr int kThreads = 2;

struct JobKind
{
    const char *name;
    int shots;
};

enum Job
{
    Bare100,
    Dd100,
    Tail20,
    Bare20,
    kJobCount
};

constexpr std::array<JobKind, kJobCount> kJobs = {{
    {"bare100", 16384},
    {"dd100", 16384},
    {"tail20", 4096},
    {"bare20", 4096},
}};

Circuit
wideIdle()
{
    Circuit c(100);
    for (QubitId q = 0; q < 100; q++) {
        c.x(q);
        c.delay(kIdleNs, q);
    }
    c.measureAll();
    return c;
}

Circuit
narrowIdle()
{
    Circuit c(20);
    for (QubitId q = 0; q < 20; q++) {
        c.h(q);
        c.delay(kIdleNs, q);
        c.h(q);
    }
    c.measureAll();
    return decompose(c);
}

struct State
{
    Device device = Device::synthetic(Topology::grid(10, 10));
    Circuit wide = wideIdle();
    Circuit narrow = narrowIdle();
};

struct JobStat
{
    double seconds = 0.0;
    int64_t shots = 0;
    FrameBatchStats stats;
};

struct UnitResult
{
    double wall = 0.0;
    double cpu = 0.0;
    std::vector<double> cycleMs; //!< job latency: one cycle's four runs
    std::array<JobStat, kJobCount> jobs;
    std::vector<double> ddGain; //!< per cycle: F(tail20) / F(bare20)
};

/** The cycle's four schedules, in kJobs order. */
std::array<ScheduledCircuit, kJobCount>
cycleSchedules(const State &st, const Calibration &cal)
{
    std::optional<ScheduledCircuit> wide, narrow;
    {
        Scope scope("schedule");
        wide = schedule(st.wide, st.device.topology(), cal,
                        ScheduleMode::Asap);
        narrow = schedule(st.narrow, st.device.topology(), cal,
                          ScheduleMode::Asap);
    }
    Scope scope("dd");
    return {*wide, insertDDAll(*wide, cal, DDOptions{}),
            insertDDAll(*narrow, cal, DDOptions{}), *narrow};
}

/** Mean over qubits of P(qubit reads 0): the X-basis idle's average
 *  single-qubit fidelity (keys are bitstrings at 20 clbits). */
double
meanZeroFraction(const Distribution &dist, int qubits)
{
    double zeros = 0.0;
    for (const auto &[key, p] : dist.probabilities())
        zeros += p * (qubits - std::popcount(key));
    return zeros / qubits;
}

/** One calibration cycle's four jobs; returns F(tail20) / F(bare20). */
double
runCycle(const State &st, const RunConfig &config, int cycle, UnitResult &u,
         Outcome &out)
{
    Scope scope("cycle", true);
    std::optional<NoisyMachine> machine;
    {
        Scope s("calibration");
        machine.emplace(st.device, cycle, NoiseFlags::pauliOnly());
    }
    std::optional scheds(cycleSchedules(st, machine->calibration()));
    std::array<double, kJobCount> fid{};
    for (int j = 0; j < kJobCount; j++) {
        const JobKind &kind = kJobs[static_cast<size_t>(j)];
        out.attempted++;
        PreparedCircuit prepared;
        RunOutcome r;
        try {
            {
                Scope s("prepare");
                prepared = machine->prepare((*scheds)[static_cast<size_t>(j)],
                                            BackendKind::Stabilizer);
            }
            const int64_t r0 = nowNs();
            {
                Scope s("run");
                r = machine->runPartial(
                    prepared, kind.shots,
                    deriveSeed(config.seed,
                               static_cast<uint64_t>(cycle * kJobCount + j)),
                    kThreads, RunControl{});
            }
            JobStat &js = u.jobs[static_cast<size_t>(j)];
            js.seconds += secondsBetween(r0, nowNs());
            js.shots += r.shotsDone;
            js.stats.merge(r.frameStats);
        } catch (const std::exception &e) {
            out.failed++;
            out.check(false, std::string(kind.name) + " threw: " + e.what());
            continue;
        }
        Scope s("check");
        const bool ok = !r.partial && r.shotsDone == kind.shots &&
                        r.dist.totalSamples() ==
                            static_cast<uint64_t>(kind.shots);
        if (!ok) {
            out.failed++;
            out.check(false, std::string(kind.name) +
                                 " histogram total differs from shots");
        }
        out.check(prepared.frameBatched(),
                  std::string(kind.name) + " bypassed the frame engine");
        if (j == Tail20 || j == Bare20)
            fid[static_cast<size_t>(j)] =
                meanZeroFraction(r.dist, st.narrow.numQubits());
        // Freeing a 100-qubit histogram and frame program is real work.
        r = RunOutcome{};
        prepared = PreparedCircuit{};
    }
    Scope s("release");
    machine.reset();
    scheds.reset();
    return ratio(fid[Tail20], fid[Bare20]);
}

UnitResult
runUnit(const State &st, const RunConfig &config, Outcome &out)
{
    UnitResult u;
    const double cpu0 = selfCpuSeconds();
    const int64_t t0 = nowNs();
    for (int cycle = 0; cycle < kCycles; cycle++) {
        const int64_t c0 = nowNs();
        u.ddGain.push_back(runCycle(st, config, cycle, u, out));
        u.cycleMs.push_back(1e3 * secondsBetween(c0, nowNs()));
    }
    u.wall = secondsBetween(t0, nowNs());
    u.cpu = selfCpuSeconds() - cpu0;
    return u;
}

double
nsPerShot(const std::vector<UnitResult> &units, Job job)
{
    double seconds = 0.0;
    int64_t shots = 0;
    for (const UnitResult &u : units) {
        seconds += u.jobs[job].seconds;
        shots += u.jobs[job].shots;
    }
    return ratio(1e9 * seconds, static_cast<double>(shots));
}

} // namespace

Outcome
runFrame(const RunConfig &config)
{
    Outcome out;
    std::optional<State> st;
    out.metrics["setup_s"] = medianSetupSeconds(7, coldCache, [&] {
        st.emplace();
        // Fill the program cache: every cycle's jobs prepared once.
        for (int cycle = 0; cycle < kCycles; cycle++) {
            const NoisyMachine machine(st->device, cycle,
                                       NoiseFlags::pauliOnly());
            for (const ScheduledCircuit &s :
                 cycleSchedules(*st, machine.calibration()))
                machine.prepare(s, BackendKind::Stabilizer);
        }
    });

    // One untimed unit first: allocator pools and page mappings grow
    // to their steady size here, not inside the first timed unit.
    // Its jobs count as attempted and are checked like any other.
    runUnit(*st, config, out);

    std::vector<UnitResult> units;
    repeatFor(untracedShare(config), 1, [&](int) {
        units.push_back(runUnit(*st, config, out));
    });
    if (out.failed > 0)
        return out;

    const double gain = adapt::geometricMean(units.front().ddGain);
    for (const UnitResult &u : units)
        out.check(adapt::geometricMean(u.ddGain) == gain,
                  "frame results differ between units of one run");
    out.check(gain > 0.0, "the X-basis idle fidelity is zero");

    // A unit has four cycle latencies, far too few for a p99: the tail
    // reported is each unit's slowest cycle, median over units.
    std::vector<double> walls, cpus, job_ms, slowest_ms, bulk_rates;
    for (const UnitResult &u : units) {
        walls.push_back(u.wall);
        cpus.push_back(u.cpu);
        job_ms.insert(job_ms.end(), u.cycleMs.begin(), u.cycleMs.end());
        slowest_ms.push_back(
            *std::max_element(u.cycleMs.begin(), u.cycleMs.end()));
        bulk_rates.push_back(
            static_cast<double>(u.jobs[Bare100].shots + u.jobs[Dd100].shots) /
            (u.jobs[Bare100].seconds + u.jobs[Dd100].seconds));
    }
    int64_t unit_shots = 0;
    for (const JobKind &k : kJobs)
        unit_shots += static_cast<int64_t>(k.shots) * kCycles;
    const double wall = median(walls);
    out.info["units"] = static_cast<double>(units.size());
    out.info["job_samples"] = static_cast<double>(job_ms.size());

    if (!config.trace) {
        out.metrics["wall_s"] = wall;
        out.metrics["cpu_s"] = median(cpus);
        out.metrics["peak_rss_mb"] = peakRssMb();
        out.metrics["adapt_gmean_rel"] = gain;
        out.metrics["shots_per_s"] = static_cast<double>(unit_shots) / wall;
        out.metrics["bulk_shots_per_s"] = median(bulk_rates);
        out.metrics["jobs_per_s"] = kCycles / wall;
        out.metrics["job_p50_ms"] = percentile(job_ms, 50);
        out.metrics["job_p99_ms"] = median(slowest_ms);
        return out;
    }

    std::vector<UnitResult> traced;
    const CacheWatch cache;
    clearSpans();
    setTracing(true);
    const int n = repeatFor(config.seconds / 2.0, 1, [&](int) {
        Scope scope("unit", true);
        traced.push_back(runUnit(*st, config, out));
    });
    setTracing(false);
    const std::vector<Span> spans = collectSpans();
    dumpSpans(config, spans);

    std::vector<double> traced_walls;
    for (const UnitResult &u : traced)
        traced_walls.push_back(u.wall);
    addTraceMetrics(out, spans, n, median(traced_walls), wall);
    out.metrics["cache.hit_ratio"] = cache.hitRatio();
    out.metrics["pool.busy_frac"] =
        median(cpus) / (wall * static_cast<double>(kThreads));
    out.metrics["frame.bare100_ns_per_shot"] = nsPerShot(traced, Bare100);
    out.metrics["frame.dd100_ns_per_shot"] = nsPerShot(traced, Dd100);
    out.metrics["frame.tail20_ns_per_shot"] = nsPerShot(traced, Tail20);
    FrameBatchStats tail;
    int64_t tail_shots = 0;
    for (const UnitResult &u : traced) {
        tail.merge(u.jobs[Tail20].stats);
        tail_shots += u.jobs[Tail20].shots;
    }
    out.metrics["frame.tail_frac"] =
        ratio(static_cast<double>(tail.tailShots), static_cast<double>(tail_shots));
    out.metrics["frame.deferred_frac"] = ratio(
        static_cast<double>(tail.deferredShots), static_cast<double>(tail_shots));
    out.metrics["frame.max_tail_depth"] = tail.maxTailDepth;
    return out;
}

} // namespace perfbench
