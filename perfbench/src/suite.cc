/**
 * @file
 * suite_fig13: the paper's Fig. 13 / Table 5 pipeline on ibmq_toronto
 * with XY4 and all four policies, at the Fig. 13 bench's settings.
 *
 * One unit is one evaluateSuite() call over the whole suite at the
 * hardware thread count, with a cold program cache.
 *
 * The traced unit replays the same computation through the public
 * stage calls, in the order evaluateWorkload / evaluatePolicy /
 * adaptSearch make them and with their documented seed derivations,
 * fanned out over programs the way evaluateSuite() is at the time of
 * writing, and must reproduce every policy fidelity bit for bit.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <optional>
#include <set>
#include <thread>

#include "adapt/policies.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "engine_counters.hh"
#include "experiments/harness.hh"
#include "noise/program_cache.hh"
#include "sim/statevector.hh"

namespace perfbench
{

namespace
{

using namespace adapt;

/** Seeds of different --seed values never share a derived stream:
 *  the library steps per-candidate seeds by 7919 and 104729, far
 *  below this stride.  --seed 0 gives the library defaults. */
constexpr uint64_t kSeedStride = 1000003;

const std::vector<Policy> kPolicies = {Policy::NoDD, Policy::AllDD,
                                       Policy::Adapt, Policy::RuntimeBest};

SuiteOptions
suiteOptions(uint64_t seed, int threads)
{
    SuiteOptions o;
    o.policy.shots = 450;
    o.policy.adapt.decoyShots = 200;
    o.policy.runtimeBestBudget = 6;
    o.policy.seed = 4242 + seed * kSeedStride;
    o.policy.adapt.seed = 2021 + seed * kSeedStride;
    o.threads = threads;
    return o;
}

/** Machine executions and shots of one program's four policies. */
struct Work
{
    int64_t jobs = 0;
    int64_t shots = 0;
};

Work
policyWork(int logical_qubits, const SuiteOptions &o)
{
    const PolicyOptions &p = o.policy;
    int64_t decoys = 0;
    for (int g = 0; g < logical_qubits; g += p.adapt.neighborhoodSize)
        decoys += int64_t{1} << std::min(p.adapt.neighborhoodSize,
                                         logical_qubits - g);
    const bool enumerable =
        logical_qubits < 64 &&
        (uint64_t{1} << logical_qubits) <=
            static_cast<uint64_t>(p.runtimeBestBudget);
    const int64_t rb =
        enumerable ? int64_t{1} << logical_qubits : p.runtimeBestBudget;
    return {3 + decoys + rb,
            (3 + rb) * p.shots + decoys * p.adapt.decoyShots};
}

struct State
{
    Device device = Device::ibmqToronto();
    std::vector<Workload> suite = paperBenchmarks();
};

/** One untraced unit: a cold-cache evaluateSuite() call. */
struct UnitResult
{
    double wall = 0.0;
    double cpu = 0.0;
    std::vector<SuiteRow> rows; //!< empty if the call threw
    std::string error;
};

UnitResult
runUnit(const State &st, const SuiteOptions &o)
{
    coldCache();
    UnitResult u;
    const double cpu0 = selfCpuSeconds();
    const int64_t t0 = nowNs();
    try {
        u.rows = evaluateSuite(st.suite, st.device, DDProtocol::XY4, o);
    } catch (const std::exception &e) {
        u.error = e.what();
    }
    u.wall = secondsBetween(t0, nowNs());
    u.cpu = selfCpuSeconds() - cpu0;
    return u;
}

/** Output checks of one unit: one attempt per policy evaluation. */
void
checkUnit(const UnitResult &u, const State &st, Outcome &out)
{
    for (size_t i = 0; i < st.suite.size(); i++) {
        for (Policy policy : kPolicies) {
            out.attempted++;
            bool ok = i < u.rows.size();
            if (ok) {
                const auto it = u.rows[i].fidelity.find(policy);
                ok = it != u.rows[i].fidelity.end() &&
                     std::isfinite(it->second);
            }
            if (!ok) {
                out.failed++;
                out.check(false, st.suite[i].name + " " + policyName(policy) +
                                     " failed: " +
                                     (u.error.empty() ? "no finite fidelity"
                                                      : u.error));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Traced replay

/** Per-program outcome of the replay: fidelity per policy. */
struct ProgramResult
{
    bool ok = false;
    std::string error;
    std::map<Policy, double> fidelity;
};

struct ReplayResult
{
    double wall = 0.0;
    std::vector<ProgramResult> programs;
    std::vector<double> chunkSeconds; //!< per pool chunk
};

struct Replay
{
    EngineCounters engine;
    std::atomic<int64_t> pulses{0};
    std::atomic<int64_t> decoys{0};
    std::mutex mu;
    double decoyIdealS = 0.0;

    std::vector<Distribution>
    run(const NoisyMachine &m, std::span<const PreparedCircuit> jobs,
        int shots, std::span<const uint64_t> seeds, int threads)
    {
        const int64_t t0 = nowNs();
        std::vector<RunOutcome> outs;
        {
            Scope scope("run");
            outs = m.runBatchPartial(jobs, shots, seeds, threads,
                                     RunControl{});
        }
        engine.add(jobs, outs, secondsBetween(t0, nowNs()));
        std::vector<Distribution> dists;
        for (RunOutcome &o : outs)
            dists.push_back(std::move(o.dist));
        return dists;
    }

    PreparedCircuit
    prepare(const NoisyMachine &m, const ScheduledCircuit &sched,
            BackendKind backend)
    {
        Scope scope("prepare");
        return m.prepare(sched, backend);
    }

    /** policies.cc runWithMask(). */
    double
    runWithMask(Policy policy, const CompiledProgram &program,
                const NoisyMachine &machine, const Distribution &ideal,
                const PolicyOptions &o, const std::vector<bool> &mask)
    {
        ScheduledCircuit sched(0, 0);
        {
            Scope scope("dd");
            sched = applyMask(program, machine, o.adapt.dd, mask);
            if (policy == Policy::AllDD)
                sched = insertDDAll(program.schedule,
                                    machine.calibration(), o.adapt.dd);
            pulses += ddPulseCount(sched);
        }
        const PreparedCircuit prepared =
            prepare(machine, sched, o.adapt.backend);
        const uint64_t seed = o.seed;
        const Distribution dist =
            run(machine, {&prepared, 1}, o.shots, {&seed, 1}, 0)[0];
        Scope scope("fidelity");
        return fidelity(ideal, dist);
    }

    /** search.cc adaptSearch(), returning the logical mask. */
    std::vector<bool>
    adaptSearch(const CompiledProgram &program, const NoisyMachine &machine,
                const AdaptOptions &o)
    {
        Scope search("search", true);
        std::optional<Decoy> decoy;
        ScheduledCircuit decoy_sched(0, 0);
        {
            Scope scope("decoy");
            decoy = makeDecoy(program.physical, o.decoy);
            decoy_sched = reschedule(decoy->circuit, machine.device(),
                                     machine.calibration());
        }
        {
            std::lock_guard<std::mutex> lock(mu);
            decoyIdealS += decoy->simTimeSec;
        }

        const int n_log = program.logicalQubits;
        std::vector<bool> mask(static_cast<size_t>(n_log), false);
        std::vector<QubitId> order(static_cast<size_t>(n_log));
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(order.begin(), order.end(),
                         [&](QubitId a, QubitId b) {
            const QubitId pa = program.initialLayout.logicalToPhysical[
                static_cast<size_t>(a)];
            const QubitId pb = program.initialLayout.logicalToPhysical[
                static_cast<size_t>(b)];
            return program.schedule.totalIdleTime(pa) >
                   program.schedule.totalIdleTime(pb);
        });

        const auto k = static_cast<size_t>(o.neighborhoodSize);
        int eval_index = 0;
        for (size_t start = 0; start < static_cast<size_t>(n_log);
             start += k) {
            const size_t end = std::min(start + k, static_cast<size_t>(n_log));
            const int bits = static_cast<int>(end - start);
            const uint32_t combos = uint32_t{1} << bits;
            std::vector<std::vector<bool>> candidates(combos);
            std::vector<uint64_t> seeds(combos);
            for (uint32_t c = 0; c < combos; c++) {
                std::vector<bool> candidate = mask;
                for (int b = 0; b < bits; b++)
                    candidate[static_cast<size_t>(
                        order[start + static_cast<size_t>(b)])] = (c >> b) & 1;
                candidates[c] = std::move(candidate);
                seeds[c] = o.seed + static_cast<uint64_t>(eval_index) * 7919;
                eval_index++;
            }
            std::vector<PreparedCircuit> prepared(combos);
            parallelFor(0, combos, o.threads,
                        [&](int64_t lo, int64_t hi, int) {
                for (int64_t i = lo; i < hi; i++) {
                    ScheduledCircuit variant(0, 0);
                    {
                        Scope scope("dd");
                        variant = insertDD(
                            decoy_sched, machine.calibration(), o.dd,
                            liftMask(program,
                                     candidates[static_cast<size_t>(i)]));
                        pulses += ddPulseCount(variant);
                    }
                    prepared[static_cast<size_t>(i)] =
                        prepare(machine, variant, o.backend);
                }
            });
            const std::vector<Distribution> outputs =
                run(machine, prepared, o.decoyShots, seeds, o.threads);
            std::vector<double> fids(combos);
            {
                Scope scope("fidelity");
                for (uint32_t c = 0; c < combos; c++)
                    fids[c] = fidelity(decoy->idealOutput, outputs[c]);
            }
            uint32_t best = 0, second = 0;
            double best_fid = -1.0, second_fid = -1.0;
            for (uint32_t c = 0; c < combos; c++) {
                if (fids[c] > best_fid) {
                    second_fid = best_fid;
                    second = best;
                    best_fid = fids[c];
                    best = c;
                } else if (fids[c] > second_fid) {
                    second_fid = fids[c];
                    second = c;
                }
            }
            const uint32_t chosen = o.conservativeMerge && second_fid >= 0.0
                                        ? (best | second)
                                        : best;
            for (int b = 0; b < bits; b++)
                mask[static_cast<size_t>(
                    order[start + static_cast<size_t>(b)])] = (chosen >> b) & 1;
        }
        decoys += eval_index;
        return mask;
    }

    /** policies.cc Runtime-Best: returns (fidelity, winning mask). */
    std::pair<double, std::vector<bool>>
    runtimeBest(const CompiledProgram &program, const NoisyMachine &machine,
                const Distribution &ideal, const PolicyOptions &o)
    {
        const auto n_log = static_cast<size_t>(program.logicalQubits);
        const std::vector<bool> none(n_log, false), all(n_log, true);
        std::vector<std::vector<bool>> candidates;
        const bool enumerable =
            program.logicalQubits < 64 &&
            (uint64_t{1} << n_log) <=
                static_cast<uint64_t>(o.runtimeBestBudget);
        if (enumerable) {
            for (uint64_t bits = 0; bits < (uint64_t{1} << n_log); bits++) {
                std::vector<bool> m(n_log, false);
                for (size_t b = 0; b < n_log; b++)
                    m[b] = (bits >> b) & 1;
                candidates.push_back(std::move(m));
            }
        } else {
            std::set<std::vector<bool>> seen;
            const auto add = [&](std::vector<bool> m) {
                if (seen.insert(m).second)
                    candidates.push_back(std::move(m));
            };
            add(none);
            add(all);
            Rng rng(o.seed ^ 0xbe57);
            while (static_cast<int>(candidates.size()) < o.runtimeBestBudget) {
                std::vector<bool> m(n_log, false);
                for (size_t b = 0; b < n_log; b++)
                    m[b] = rng.bernoulli(0.5);
                add(std::move(m));
            }
        }
        const size_t n = candidates.size();
        std::vector<PreparedCircuit> prepared(n);
        std::vector<uint64_t> seeds(n);
        for (size_t i = 0; i < n; i++)
            seeds[i] = o.seed + static_cast<uint64_t>(i) * 104729;
        parallelFor(0, static_cast<int64_t>(n), o.adapt.threads,
                    [&](int64_t lo, int64_t hi, int) {
            for (int64_t i = lo; i < hi; i++) {
                ScheduledCircuit sched(0, 0);
                {
                    Scope scope("dd");
                    sched = applyMask(program, machine, o.adapt.dd,
                                      candidates[static_cast<size_t>(i)]);
                    pulses += ddPulseCount(sched);
                }
                prepared[static_cast<size_t>(i)] =
                    prepare(machine, sched, o.adapt.backend);
            }
        });
        const std::vector<Distribution> outputs =
            run(machine, prepared, o.shots, seeds, o.adapt.threads);
        Scope scope("fidelity");
        size_t win = 0;
        double best = -1.0;
        for (size_t i = 0; i < outputs.size(); i++) {
            const double fid = fidelity(ideal, outputs[i]);
            if (fid > best) {
                best = fid;
                win = i;
            }
        }
        return {best, candidates[win]};
    }

    /** harness.cc evaluateWorkload() + policies.cc evaluatePolicy(). */
    void
    program(const State &st, const SuiteOptions &so, const Workload &w,
            ProgramResult &r)
    {
        Scope scope("program", true, w.name);
        std::optional<CompiledProgram> program;
        std::optional<NoisyMachine> machine;
        {
            Scope s("transpile");
            const Calibration cal = st.device.calibration(so.cycle);
            program.emplace(transpile(w.circuit, st.device, cal));
            machine.emplace(st.device, so.cycle);
        }
        Distribution ideal;
        {
            Scope s("ideal");
            ideal = idealDistribution(program->physical);
        }
        PolicyOptions o = so.policy;
        o.adapt.dd.protocol = DDProtocol::XY4;
        const auto n_log = static_cast<size_t>(program->logicalQubits);
        for (Policy policy : kPolicies) {
            Scope ps(policy == Policy::RuntimeBest ? "policy.rb"
                                                   : "policy", true,
                     policyName(policy));
            std::vector<bool> mask(n_log, policy != Policy::NoDD);
            double fid = 0.0;
            if (policy == Policy::RuntimeBest) {
                std::tie(fid, mask) = runtimeBest(*program, *machine, ideal, o);
            } else {
                if (policy == Policy::Adapt)
                    mask = adaptSearch(*program, *machine, o.adapt);
                fid = runWithMask(policy, *program, *machine, ideal, o, mask);
            }
            r.fidelity[policy] = fid;
        }
    }
};

/** The replay, one job per program fanned out over the pool as
 *  evaluateSuite() does; each pool chunk is a span and is timed. */
ReplayResult
replayUnit(const State &st, const SuiteOptions &o, Replay &replay)
{
    coldCache();
    ReplayResult u;
    u.programs.resize(st.suite.size());
    u.chunkSeconds.assign(static_cast<size_t>(o.threads), 0.0);
    const int64_t t0 = nowNs();
    parallelFor(0, static_cast<int64_t>(st.suite.size()), o.threads,
                [&](int64_t lo, int64_t hi, int chunk) {
        Scope scope("chunk", true);
        const int64_t c0 = nowNs();
        for (int64_t i = lo; i < hi; i++) {
            ProgramResult &r = u.programs[static_cast<size_t>(i)];
            try {
                replay.program(st, o, st.suite[static_cast<size_t>(i)], r);
                r.ok = true;
            } catch (const std::exception &e) {
                r.error = e.what();
            }
        }
        u.chunkSeconds[static_cast<size_t>(chunk)] =
            secondsBetween(c0, nowNs());
    });
    u.wall = secondsBetween(t0, nowNs());
    return u;
}

/** Replay checks: one attempt per policy evaluation, failed by an
 *  exception or a fidelity that differs from evaluateSuite()'s. */
void
checkReplay(const ReplayResult &u, const UnitResult &ref, const State &st,
            Outcome &out)
{
    for (size_t i = 0; i < u.programs.size(); i++) {
        const ProgramResult &r = u.programs[i];
        for (Policy policy : kPolicies) {
            out.attempted++;
            const auto it = r.fidelity.find(policy);
            if (r.ok && it != r.fidelity.end() &&
                it->second == ref.rows[i].fidelity.at(policy))
                continue;
            out.failed++;
            out.check(false, "replay of " + st.suite[i].name + " " +
                                 policyName(policy) +
                                 (r.ok ? " differs from evaluateSuite"
                                       : " failed: " + r.error));
        }
    }
}

} // namespace

Outcome
runSuite(const RunConfig &config)
{
    Outcome out;
    const SuiteOptions so = suiteOptions(config.seed, config.threads);
    std::optional<State> st;
    // Set-up is about 1 ms.  On shared vCPUs a task that short runs at
    // one of two speeds, about 1.7x apart, for seconds at a time, so one
    // burst of repetitions lands on either.  Five bursts a second apart:
    // the lowest burst median is the uncontended set-up time.
    std::vector<double> bursts;
    for (int b = 0; b < 5; b++) {
        if (b > 0)
            std::this_thread::sleep_for(std::chrono::seconds(1));
        bursts.push_back(medianSetupSeconds(41, coldCache, [&] {
            st.emplace();
            parallelFor(0, config.threads, config.threads,
                        [](int64_t, int64_t, int) {});
        }));
    }
    out.metrics["setup_s"] = *std::min_element(bursts.begin(), bursts.end());

    Work work;
    for (const Workload &w : st->suite) {
        const Work p = policyWork(w.circuit.numQubits(), so);
        work.jobs += p.jobs;
        work.shots += p.shots;
    }

    std::vector<UnitResult> units;
    repeatFor(untracedShare(config), 1, [&](int) {
        units.push_back(runUnit(*st, so));
        checkUnit(units.back(), *st, out);
    });
    if (out.failed > 0)
        return out;

    const auto gmean_of = [](const UnitResult &u) {
        return summarize(u.rows, Policy::Adapt).gmean;
    };
    const double gmean = gmean_of(units.front());
    for (const UnitResult &u : units)
        out.check(gmean_of(u) == gmean,
                  "suite result differs between units of one run");
    out.check(gmean >= 1.0, "ADAPT gmean relative to No-DD is below 1");

    // A job is one evaluateSuite() call: its latency is the unit wall.
    std::vector<double> walls, cpus, job_ms;
    for (const UnitResult &u : units) {
        walls.push_back(u.wall);
        cpus.push_back(u.cpu);
        job_ms.push_back(1e3 * u.wall);
    }
    const double wall = median(walls);
    out.info["units"] = static_cast<double>(units.size());
    out.info["job_samples"] = static_cast<double>(job_ms.size());
    out.info["unit_shots"] = static_cast<double>(work.shots);

    if (!config.trace) {
        out.metrics["wall_s"] = wall;
        out.metrics["cpu_s"] = median(cpus);
        out.metrics["peak_rss_mb"] = peakRssMb();
        out.metrics["adapt_gmean_rel"] = gmean;
        out.metrics["shots_per_s"] = static_cast<double>(work.shots) / wall;
        // The suite is one bulk batch: all of its shots are bulk shots.
        out.metrics["bulk_shots_per_s"] = out.metrics["shots_per_s"];
        out.metrics["jobs_per_s"] = static_cast<double>(work.jobs) / wall;
        out.metrics["job_p50_ms"] = percentile(job_ms, 50);
        out.metrics["job_p99_ms"] = percentile(job_ms, 99);
        return out;
    }

    // Traced replay: one unit (a unit already exceeds half a run).
    Replay replay;
    const CacheWatch cache;
    clearSpans();
    setTracing(true);
    const ReplayResult traced = replayUnit(*st, so, replay);
    setTracing(false);
    const std::vector<Span> spans = collectSpans();
    dumpSpans(config, spans);
    checkReplay(traced, units.front(), *st, out);
    out.check(replay.engine.shots() == work.shots,
              "replay shot count differs from the policy work model");

    addTraceMetrics(out, spans, 1, traced.wall, wall);
    out.metrics["cache.hit_ratio"] = cache.hitRatio();
    const auto totals = stageTotals(spans);
    const auto total_of = [&](const char *stage) {
        const auto it = totals.find(stage);
        return it == totals.end() ? 0.0 : it->second.totalS;
    };
    const double busy = busySeconds(spans);
    out.metrics["pool.busy_frac"] =
        median(cpus) / (wall * static_cast<double>(config.threads));
    out.metrics["suite.critical_path_share"] =
        *std::max_element(traced.chunkSeconds.begin(),
                          traced.chunkSeconds.end()) /
        traced.wall;
    for (const Span &s : spans) {
        if (s.stage == "program")
            out.metrics["wl." + s.label + ".s"] = s.seconds();
    }
    replay.engine.report(out);
    out.metrics["decoy.ideal_s"] = replay.decoyIdealS;
    out.metrics["dd.pulses"] = static_cast<double>(replay.pulses.load());
    out.metrics["run.shots"] = static_cast<double>(replay.engine.shots());
    out.metrics["search.decoys"] = static_cast<double>(replay.decoys.load());
    out.metrics["search.share"] = total_of("search") / busy;
    out.metrics["rb.share"] = total_of("policy.rb") / busy;
    return out;
}

} // namespace perfbench
