/**
 * @file
 * Drift sweep over a synthetic runcard fleet: cold compiles vs
 * skeleton-cache re-binds.
 *
 * The structure/bind compile split makes prepare() against a warm
 * ProgramCache a pure constant re-bind; this artefact stamps out a
 * runcard-described fleet (makeSyntheticFleet: varied topologies,
 * jittered profiles, every member round-tripped through the text
 * format) and sweeps workloads across drifting calibration cycles on
 * every member, recording cold vs re-bind prepare() wall time, the
 * speedup, and cache hit rates (recorded numbers live in
 * BENCH_pr8.json).  Two sweeps cover both compile paths: a QFT
 * workload under the full noise model (dense: plan lowering + splice
 * tables), and a DD-idle Clifford workload under Pauli-expressible
 * noise (frame: the compile-time reference-tableau walk, the most
 * expensive and most cacheable structure phase).  Per-cycle mean
 * fidelities prove the re-bound programs execute end to end.
 *
 * A sweep's timed prepares total only a few milliseconds, so one
 * preemption can swing a single pass's speedup: each sweep runs
 * kSweepPasses times and reports the median speedup with its
 * quartiles.
 */

#include "bench_common.hh"

#include "common/rng.hh"
#include "common/stats.hh"
#include "device/runcard.hh"
#include "experiments/fleet.hh"
#include "noise/program_cache.hh"

using namespace adapt;

namespace
{

/**
 * Brick-pattern Clifford workload with idle windows: random 1q
 * Cliffords, alternating neighbour CNOTs, and delays (idle windows
 * drive the T1 / dephasing reference decisions that dominate the
 * frame structure phase).
 */
Circuit
cliffordDriftWorkload(int n, uint64_t seed)
{
    Rng rng(seed);
    Circuit c(n, n);
    const int layers = 12;
    for (int layer = 0; layer < layers; layer++) {
        for (QubitId q = 0; q < n; q++) {
            switch (rng.uniformInt(6)) {
              case 0: c.h(q); break;
              case 1: c.s(q); break;
              case 2: c.sx(q); break;
              case 3: c.x(q); break;
              case 4:
                c.delay(400.0 + 200.0 * rng.uniform(), q);
                break;
              default: c.z(q); break;
            }
        }
        for (QubitId q = layer % 2; q + 1 < n; q += 2)
            c.cx(q, q + 1);
    }
    c.measureAll();
    return c;
}

/** Fleet + workloads at a stable address (NoisyMachine keeps a
 *  reference to its Device). */
struct Setup
{
    std::vector<Device> fleet;
    Workload dense;
    Workload clifford;

    Setup()
        : fleet(makeSyntheticFleet({/*devices=*/8})),
          dense(smallBenchmarks().front()),
          clifford({"clifford-idle-12L", cliffordDriftWorkload(5, 7)})
    {
    }
};

const Setup &
setup()
{
    static const Setup s;
    return s;
}

/** Microbenchmark: cold prepare (full structure + bind compile). */
void
BM_PrepareCold(benchmark::State &state)
{
    const Device &device = setup().fleet.front();
    NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    machine.setProgramCache(nullptr);
    const CompiledProgram program = transpile(
        setup().clifford.circuit, device, device.calibration(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(machine.prepare(program.schedule));
}
BENCHMARK(BM_PrepareCold)->Unit(benchmark::kMicrosecond);

/** Microbenchmark: warm-cache prepare (bind phase only). */
void
BM_PrepareRebind(benchmark::State &state)
{
    const Device &device = setup().fleet.front();
    ProgramCache cache(8);
    NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    machine.setProgramCache(&cache);
    const CompiledProgram program = transpile(
        setup().clifford.circuit, device, device.calibration(0));
    machine.prepare(program.schedule); // warm the skeleton
    for (auto _ : state)
        benchmark::DoNotOptimize(machine.prepare(program.schedule));
}
BENCHMARK(BM_PrepareRebind)->Unit(benchmark::kMicrosecond);

/** Timed passes per sweep: the first also runs the shots (fidelities,
 *  cache counters), the rest time prepares only. */
constexpr int kSweepPasses = 5;

/**
 * Run @p options' sweep kSweepPasses times and report the first pass's
 * fidelities and cache counters with the median cold / re-bind totals
 * and the median speedup and its quartiles over all passes.
 */
void
reportSweep(const char *label, const Workload &workload,
            const char *path_note, DriftSweepOptions options)
{
    const DriftSweepResult r = driftSweep(setup().fleet, workload, options);
    std::vector<double> cold = {r.coldPrepareMs};
    std::vector<double> rebind = {r.rebindPrepareMs};
    std::vector<double> speedup = {r.speedup};
    options.shots = 0;
    for (int pass = 1; pass < kSweepPasses; pass++) {
        const DriftSweepResult t =
            driftSweep(setup().fleet, workload, options);
        cold.push_back(t.coldPrepareMs);
        rebind.push_back(t.rebindPrepareMs);
        speedup.push_back(t.speedup);
    }
    const double cold_ms = percentile(cold, 50.0);
    const double rebind_ms = percentile(rebind, 50.0);
    const double speedup_q1 = percentile(speedup, 25.0);
    const double speedup_med = percentile(speedup, 50.0);
    const double speedup_q3 = percentile(speedup, 75.0);

    const double total = static_cast<double>(r.cacheHits) +
                         static_cast<double>(r.cacheMisses);
    const double hit_rate =
        total > 0.0 ? static_cast<double>(r.cacheHits) / total : 0.0;
    std::printf("\n--- %s sweep (%s, %s) ---\n", label,
                workload.name.c_str(), path_note);
    std::printf("prepares per mode:   %d (%d devices x %d cycles)\n",
                r.prepares, r.devices, r.cycles);
    std::printf("timed passes:        %d (medians below)\n",
                kSweepPasses);
    std::printf("cold prepare total:  %8.2f ms\n", cold_ms);
    std::printf("re-bind total:       %8.2f ms\n", rebind_ms);
    std::printf("speedup:             %8.2fx [quartiles %.2f, %.2f]\n",
                speedup_med, speedup_q1, speedup_q3);
    std::printf("cache hits/misses:   %llu / %llu (hit rate %.1f%%)\n",
                static_cast<unsigned long long>(r.cacheHits),
                static_cast<unsigned long long>(r.cacheMisses),
                100.0 * hit_rate);
    std::printf("%-8s %s\n", "cycle", "mean fidelity");
    for (size_t cycle = 0; cycle < r.meanFidelityPerCycle.size();
         cycle++) {
        std::printf("%-8zu %.4f\n", cycle,
                    r.meanFidelityPerCycle[cycle]);
    }

    benchio::Case &c =
        benchio::record(std::string("drift_sweep_") + label)
            .label("workload", workload.name)
            .label("compile_path", path_note)
            .metric("devices", r.devices)
            .metric("cycles", r.cycles)
            .metric("prepares_per_mode", r.prepares)
            .metric("timed_passes", kSweepPasses)
            .metric("cold_prepare_ms", cold_ms)
            .metric("rebind_prepare_ms", rebind_ms)
            .metric("rebind_speedup", speedup_med)
            .metric("rebind_speedup_q1", speedup_q1)
            .metric("rebind_speedup_q3", speedup_q3)
            .metric("cache_hits", static_cast<double>(r.cacheHits))
            .metric("cache_misses",
                    static_cast<double>(r.cacheMisses))
            .metric("cache_hit_rate", hit_rate);
    for (size_t cycle = 0; cycle < r.meanFidelityPerCycle.size();
         cycle++) {
        c.metric("mean_fidelity_cycle_" + std::to_string(cycle),
                 r.meanFidelityPerCycle[cycle]);
    }
}

void
runExperiment()
{
    const Setup &s = setup();
    benchio::open("drift_sweep",
                  "cold compile vs skeleton-cache re-bind across a "
                  "synthetic runcard fleet's calibration drift");
    banner("Drift sweep",
           "runcard fleet x calibration cycles: cold prepare vs "
           "cached re-bind");
    std::printf("fleet: %zu runcard devices (", s.fleet.size());
    for (size_t i = 0; i < s.fleet.size(); i++) {
        std::printf("%s%s", i == 0 ? "" : ", ",
                    s.fleet[i].name().c_str());
    }
    std::printf(")\n");

    DriftSweepOptions dense_opts;
    dense_opts.cycles = 4;
    dense_opts.shots = 256;
    reportSweep("dense", s.dense, "dense (full noise model)", dense_opts);

    DriftSweepOptions frame_opts = dense_opts;
    frame_opts.flags = NoiseFlags::pauliOnly();
    reportSweep("frame", s.clifford, "frame (Clifford + Pauli noise)",
                frame_opts);
}

} // namespace

ADAPT_BENCH_MAIN(runExperiment)
