/**
 * @file
 * Shot-execution throughput of the Monte-Carlo noise engine.
 *
 * The paper's every figure and table is an estimate over thousands of
 * noisy shots, so shots/second through NoisyMachine::run *is* the
 * repo's end-to-end speed.  This binary measures it on a 10-qubit
 * QAOA workload at 4096 shots per run — the acceptance workload for
 * the parallel engine — across thread counts (1 = the serial
 * baseline), plus the single-shot statevector kernels underneath.
 *
 * Since the compile-once rework it also records:
 *  - interpreted vs. compiled dense replay (ExecMode knob) at two
 *    scales: the decoy scale — QAOA-5 on ibmq_rome, bare and
 *    All-DD-padded, i.e. the non-Clifford seeded-decoy shape the
 *    ADAPT search executes by the thousands — and the full
 *    27-qubit-device QAOA-10 routing.  At the decoy scale the
 *    per-shot interpreter work (pulse-product composition, exp()
 *    noise constants, allocations) rivals the small state sweeps and
 *    compile-once replay is >= 2-3x faster (the PR's acceptance
 *    number, recorded in BENCH_pr4.json); on the 14-active-qubit
 *    routing the amplitude sweeps dominate both paths and the gap
 *    narrows — that regime is what the SIMD kernels and the
 *    live-width state vector attack;
 *  - grouped (shot-batched) vs per-shot compiled replay: the
 *    headline rows time all three dense strategies and record the
 *    signature-grouping occupancy (mean group size, no-error-group
 *    fraction) that explains each speedup; the per-shot rows and the
 *    registered *PerShot variants run a directly built ShotReplayer,
 *    so they stay per-shot whatever the engine would pick;
 *  - the batch frame engine at 32/50/100-qubit characterization
 *    widths (256 lanes per pass);
 *  - one-time job preparation (plan lowering + compilation), to show
 *    amortization across shots;
 *  - the apply1Q / applyPhase / populationOne kernels, each timed
 *    with both of its bodies in this one binary (second argument:
 *    0 = portable scalar, 1 = AVX2, skipped on CPUs without it).
 *    The engine rows run whichever body the process picked from the
 *    CPU at start-up; the banner prints which.
 *
 * Thread count is the benchmark argument; 0 means auto
 * (ADAPT_NUM_THREADS or hardware concurrency).
 */

#include "bench_common.hh"

#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/flat_accumulator.hh"
#include "common/parallel.hh"
#include "dd/sequences.hh"
#include "noise/compiled.hh"
#include "noise/machine.hh"
#include "sim/dense_kernels.hh"
#include "transpile/decompose.hh"
#include "transpile/schedule.hh"
#include "transpile/transpiler.hh"

using namespace adapt;

namespace
{

constexpr int kShots = 4096;

/** One shared device so transpilation and execution see the same
 *  calibration. */
const Device &
device()
{
    static const Device d = Device::ibmqToronto();
    return d;
}

/** The acceptance workload: QAOA-10 compiled for ibmq_toronto. */
const CompiledProgram &
program()
{
    static const CompiledProgram p =
        transpile(makeQaoa(10, QaoaGraph::A), device(),
                  device().calibration(0));
    return p;
}

const NoisyMachine &
machine()
{
    static const NoisyMachine m(device());
    return m;
}

/** The DD-heavy variant: every qubit XY4-padded (dense pulse
 *  trains), i.e. what ADAPT actually executes at scale. */
const ScheduledCircuit &
paddedSchedule()
{
    static const ScheduledCircuit s = insertDDAll(
        program().schedule, machine().calibration(), DDOptions{});
    return s;
}

/** Decoy-scale device + workload: a 5-qubit non-Clifford circuit on
 *  ibmq_rome, the shape (and state-vector size) of the seeded decoy
 *  circuits the ADAPT search scores by the thousands. */
const Device &
decoyDevice()
{
    static const Device d = Device::ibmqRome();
    return d;
}

const NoisyMachine &
decoyMachine()
{
    static const NoisyMachine m(decoyDevice());
    return m;
}

const ScheduledCircuit &
decoySchedule()
{
    static const ScheduledCircuit s =
        transpile(makeQaoa(5, QaoaGraph::A), decoyDevice(),
                  decoyDevice().calibration(0))
            .schedule;
    return s;
}

const ScheduledCircuit &
decoyPaddedSchedule()
{
    static const ScheduledCircuit s = insertDDAll(
        decoySchedule(), decoyMachine().calibration(), DDOptions{});
    return s;
}

/** Pauli-only decoy machine (gate/measure/T1/white-dephasing noise,
 *  OU drift off).  With no per-shot OU phases the whole event-free
 *  prefix is shot-invariant, which is where the grouped engine's
 *  reference-state reuse pays off fully — the >= 2x acceptance row.
 *  (QAOA decoys are non-Clifford, so this config still runs the
 *  dense backend in production.) */
const NoisyMachine &
decoyPauliMachine()
{
    static const NoisyMachine m(decoyDevice(), 0,
                                NoiseFlags::pauliOnly());
    return m;
}

void
runThroughput(benchmark::State &state, const NoisyMachine &m,
              const ScheduledCircuit &sched, ExecMode mode,
              int threads, int shots)
{
    const PreparedCircuit prepared =
        m.prepare(sched, BackendKind::Dense);
    uint64_t seed = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            m.run(prepared, shots, ++seed, threads, mode));
    }
    state.SetItemsProcessed(state.iterations() * shots);
    state.counters["shots_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * shots,
        benchmark::Counter::kIsRate);
}

/**
 * The per-shot compiled replay of a dense schedule, built directly
 * (buildPlan + compileShotProgram + ShotReplayer) rather than through
 * NoisyMachine's strategy choice, so per-shot rows stay per-shot on
 * programs the engine would group.  Serial, like the rows it backs.
 */
struct PerShotReplay
{
    PerShotReplay(const NoisyMachine &m, const ScheduledCircuit &sched)
        : plan(buildPlan(sched, m.calibration(), m.flags())),
          prog(compileShotProgram(plan, m.calibration(), m.flags())),
          replayer(plan, prog)
    {
    }

    /** replayer refers to plan and prog: pinned in place. */
    PerShotReplay(const PerShotReplay &) = delete;
    PerShotReplay &operator=(const PerShotReplay &) = delete;

    /** Run @p shots shots; returns the outcome support size. */
    size_t
    run(int shots, uint64_t seed)
    {
        FlatAccumulator hist;
        replayer.runBlock(Rng(seed), 0, shots, hist);
        return hist.size();
    }

    ExecutionPlan plan;
    ShotProgram prog;
    ShotReplayer replayer;
};

/** Same sweep on the directly built per-shot replay: the baseline the
 *  registered compiled rows are read against. */
void
runThroughputPerShot(benchmark::State &state, const NoisyMachine &m,
                     const ScheduledCircuit &sched, int shots)
{
    PerShotReplay pershot(m, sched);
    uint64_t seed = 1;
    for (auto _ : state)
        benchmark::DoNotOptimize(pershot.run(shots, ++seed));
    state.SetItemsProcessed(state.iterations() * shots);
    state.counters["shots_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * shots,
        benchmark::Counter::kIsRate);
}

void
BM_ShotThroughput(benchmark::State &state)
{
    runThroughput(state, machine(), program().schedule,
                  ExecMode::Compiled,
                  static_cast<int>(state.range(0)), kShots);
}

void
BM_ShotThroughputInterpreted(benchmark::State &state)
{
    runThroughput(state, machine(), program().schedule,
                  ExecMode::Interpreted,
                  static_cast<int>(state.range(0)), kShots);
}

/** Fewer shots on the DD-padded 14-active-qubit pair: one iteration
 *  stays affordable in the CI smoke run. */
constexpr int kPaddedShots = 1024;

void
BM_ShotThroughputDD(benchmark::State &state)
{
    runThroughput(state, machine(), paddedSchedule(),
                  ExecMode::Compiled,
                  static_cast<int>(state.range(0)), kPaddedShots);
}

void
BM_ShotThroughputDDInterpreted(benchmark::State &state)
{
    runThroughput(state, machine(), paddedSchedule(),
                  ExecMode::Interpreted,
                  static_cast<int>(state.range(0)), kPaddedShots);
}

void
BM_DecoyShotThroughput(benchmark::State &state)
{
    runThroughput(state, decoyMachine(), decoySchedule(),
                  ExecMode::Compiled,
                  static_cast<int>(state.range(0)), kShots);
}

void
BM_DecoyShotThroughputInterpreted(benchmark::State &state)
{
    runThroughput(state, decoyMachine(), decoySchedule(),
                  ExecMode::Interpreted,
                  static_cast<int>(state.range(0)), kShots);
}

void
BM_DecoyShotThroughputDD(benchmark::State &state)
{
    runThroughput(state, decoyMachine(), decoyPaddedSchedule(),
                  ExecMode::Compiled,
                  static_cast<int>(state.range(0)), kShots);
}

void
BM_DecoyShotThroughputDDInterpreted(benchmark::State &state)
{
    runThroughput(state, decoyMachine(), decoyPaddedSchedule(),
                  ExecMode::Interpreted,
                  static_cast<int>(state.range(0)), kShots);
}

void
BM_DecoyShotThroughputPerShot(benchmark::State &state)
{
    runThroughputPerShot(state, decoyMachine(), decoySchedule(),
                         kShots);
}

void
BM_DecoyShotThroughputDDPerShot(benchmark::State &state)
{
    runThroughputPerShot(state, decoyMachine(), decoyPaddedSchedule(),
                         kShots);
}

/** One-time job preparation (plan lowering + shot-program
 *  compilation) — the cost amortized over a job's shots. */
void
BM_PrepareCompile(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            machine().prepare(paddedSchedule(), BackendKind::Dense));
    }
}

/** Ideal-distribution path: fused 1Q gates + flat accumulation. */
void
BM_IdealDistribution(benchmark::State &state)
{
    const Circuit &physical = program().physical;
    for (auto _ : state)
        benchmark::DoNotOptimize(idealDistribution(physical));
}

/** Amplitudes per kernel row: a 16-qubit register. */
constexpr uint64_t kKernelDim = uint64_t{1} << 16;

/**
 * The kernel bodies a kernel row times: range(1) == 0 picks the
 * portable scalar bodies, 1 the AVX2 ones.  Returns nullptr (and
 * skips the row) on a CPU without AVX2.
 */
const detail::DenseKernels *
kernelBodies(benchmark::State &state)
{
    if (state.range(1) == 0)
        return &detail::scalarKernels();
    if (!detail::cpuHasAvx2()) {
        state.SkipWithError("this CPU lacks AVX2");
        return nullptr;
    }
    return detail::avx2Kernels();
}

/** A 16-qubit uniform superposition. */
std::vector<Complex>
uniformAmplitudes()
{
    const double a = 1.0 / std::sqrt(static_cast<double>(kKernelDim));
    return std::vector<Complex>(kKernelDim, a);
}

/** Single-qubit kernel, stride-1 (q = 0) vs. strided (high qubit). */
void
BM_Apply1Q(benchmark::State &state)
{
    const detail::DenseKernels *k = kernelBodies(state);
    if (k == nullptr)
        return;
    const auto q = static_cast<QubitId>(state.range(0));
    std::vector<Complex> amps = uniformAmplitudes();
    const Matrix2 h = gateMatrix(GateType::H);
    for (auto _ : state) {
        k->apply1Q(amps.data(), kKernelDim, h, q);
        benchmark::DoNotOptimize(amps.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(k->isa);
}

/** Diagonal idle-phase kernel. */
void
BM_ApplyPhase(benchmark::State &state)
{
    const detail::DenseKernels *k = kernelBodies(state);
    if (k == nullptr)
        return;
    const auto q = static_cast<QubitId>(state.range(0));
    std::vector<Complex> amps = uniformAmplitudes();
    const Complex factor = std::exp(kImag * 1e-3);
    for (auto _ : state) {
        k->applyPhase(amps.data(), kKernelDim, q, factor);
        benchmark::DoNotOptimize(amps.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(k->isa);
}

/** Marginal-population reduction (measure + T1 jump hot path). */
void
BM_PopulationOne(benchmark::State &state)
{
    const detail::DenseKernels *k = kernelBodies(state);
    if (k == nullptr)
        return;
    const auto q = static_cast<QubitId>(state.range(0));
    const std::vector<Complex> amps = uniformAmplitudes();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            k->populationOne(amps.data(), kKernelDim, q));
    }
    state.SetLabel(k->isa);
}

void
registerThroughput(const char *name,
                   void (*fn)(benchmark::State &),
                   bool thread_sweep)
{
    auto *bench = benchmark::RegisterBenchmark(name, fn);
    bench->Unit(benchmark::kMillisecond)->UseRealTime();
    bench->Arg(1); // serial baseline
    if (!thread_sweep)
        return;
    const int hw = defaultThreads();
    for (int t = 2; t <= hw; t *= 2)
        bench->Arg(t);
    if (hw > 1)
        bench->Arg(0); // auto
}

void
registerBenchmarks()
{
    registerThroughput("BM_ShotThroughput", BM_ShotThroughput, true);
    registerThroughput("BM_ShotThroughputInterpreted",
                       BM_ShotThroughputInterpreted, false);
    registerThroughput("BM_ShotThroughputDD", BM_ShotThroughputDD,
                       true);
    registerThroughput("BM_ShotThroughputDDInterpreted",
                       BM_ShotThroughputDDInterpreted, false);
    registerThroughput("BM_DecoyShotThroughput",
                       BM_DecoyShotThroughput, true);
    registerThroughput("BM_DecoyShotThroughputInterpreted",
                       BM_DecoyShotThroughputInterpreted, false);
    registerThroughput("BM_DecoyShotThroughputDD",
                       BM_DecoyShotThroughputDD, true);
    registerThroughput("BM_DecoyShotThroughputDDInterpreted",
                       BM_DecoyShotThroughputDDInterpreted, false);
    registerThroughput("BM_DecoyShotThroughputPerShot",
                       BM_DecoyShotThroughputPerShot, false);
    registerThroughput("BM_DecoyShotThroughputDDPerShot",
                       BM_DecoyShotThroughputDDPerShot, false);
    benchmark::RegisterBenchmark("BM_PrepareCompile",
                                 BM_PrepareCompile)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark("BM_IdealDistribution",
                                 BM_IdealDistribution)
        ->Unit(benchmark::kMicrosecond);
    for (auto *kernel :
         {benchmark::RegisterBenchmark("BM_Apply1Q", BM_Apply1Q),
          benchmark::RegisterBenchmark("BM_ApplyPhase",
                                       BM_ApplyPhase),
          benchmark::RegisterBenchmark("BM_PopulationOne",
                                       BM_PopulationOne)}) {
        kernel->ArgNames({"q", "avx2"})
            ->ArgsProduct({{0, 15}, {0, 1}})
            ->Unit(benchmark::kMicrosecond);
    }
}

/** Record one headline interpreted / per-shot-compiled / grouped
 *  triple directly (the registered benchmarks re-measure the same
 *  points with more rigor; these rows make the BENCH_*.json record
 *  self-contained).  The grouped row also carries the occupancy of
 *  the signature grouping — mean group size and the fraction of
 *  shots whose draw pass fired nothing — so a recorded speedup can
 *  be read against how much grouping was actually available. */
void
recordHeadline(const char *name, const NoisyMachine &m,
               const ScheduledCircuit &sched, int shots)
{
    const PreparedCircuit prepared =
        m.prepare(sched, BackendKind::Dense);
    const auto seconds = [&](ExecMode mode) {
        const auto t0 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(m.run(prepared, shots, 7, 1, mode));
        const auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(t1 - t0).count() /
               shots;
    };
    const double interpreted = seconds(ExecMode::Interpreted);
    double pershot = 0.0;
    {
        PerShotReplay replay(m, sched);
        const auto t0 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(replay.run(shots, 7));
        const auto t1 = std::chrono::steady_clock::now();
        pershot =
            std::chrono::duration<double>(t1 - t0).count() / shots;
    }

    DenseBatchStats stats;
    const auto t0 = std::chrono::steady_clock::now();
    {
        const RunOutcome out = m.runPartial(prepared, shots, 7, 1,
                                            RunControl{});
        benchmark::DoNotOptimize(&out.dist);
        stats = out.denseStats;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double grouped =
        std::chrono::duration<double>(t1 - t0).count() / shots;

    benchio::Case &row =
        benchio::record(name)
            .metric("shots", shots)
            .metric("interpreted_ns_per_shot", interpreted * 1e9)
            .metric("pershot_compiled_ns_per_shot", pershot * 1e9)
            .metric("grouped_compiled_ns_per_shot", grouped * 1e9)
            .metric("interpreted_shots_per_sec", 1.0 / interpreted)
            .metric("pershot_compiled_shots_per_sec", 1.0 / pershot)
            .metric("grouped_compiled_shots_per_sec", 1.0 / grouped)
            .metric("speedup_compiled_vs_interpreted",
                    interpreted / pershot)
            .metric("speedup_grouped_vs_pershot", pershot / grouped);
    // Occupancy: zero grouped shots means the job was ineligible
    // (per-shot OU phases, or a register wider than kMaxBatchQubits)
    // and ran the per-shot replay — mean_group_size then records
    // null.
    row.metric("grouped_shots", static_cast<double>(stats.shots))
        .metric("mean_group_size",
                static_cast<double>(stats.shots) /
                    static_cast<double>(stats.groups))
        .metric("no_error_group_fraction",
                stats.shots > 0
                    ? static_cast<double>(stats.noErrorShots) /
                          static_cast<double>(stats.shots)
                    : 0.0)
        .metric("batched_shot_fraction",
                stats.shots > 0
                    ? static_cast<double>(stats.batchedShots) /
                          static_cast<double>(stats.shots)
                    : 0.0);
    std::printf("%-28s %9.0f ns/shot interpreted, %8.0f per-shot, "
                "%8.0f grouped (%.2fx vs per-shot)\n",
                name, interpreted * 1e9, pershot * 1e9, grouped * 1e9,
                pershot / grouped);
}

/** Whole-device T1/idle characterization at width @p n — the frame
 *  engine's plane-bound shape (every qubit excited, idled, read
 *  out), the 50q/100q sweep workload. */
ScheduledCircuit
buildT1Characterization(const Device &device, int n)
{
    Circuit c(n);
    for (QubitId q = 0; q < n; q++) {
        c.x(q);
        c.delay(20000.0, q);
    }
    c.measureAll();
    return schedule(c, device.topology(), device.calibration(0),
                    ScheduleMode::Asap);
}

/**
 * Frame-plane characterization sweep: seconds per shot of the batch
 * frame engine at 32, 50, and 100 qubits (kFrameLanes lanes per
 * pass), one row per register width.
 */
void
recordFrameSweep()
{
    for (const int n : {32, 50, 100}) {
        const Device device =
            Device::synthetic(Topology::linear(n), 200 + n);
        const NoisyMachine machine(device, 0,
                                   NoiseFlags::pauliOnly());
        const PreparedCircuit prepared = machine.prepare(
            buildT1Characterization(device, n), BackendKind::Stabilizer);
        const int shots = n <= 50 ? 1 << 13 : 1 << 12;
        const auto t0 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(machine.run(prepared, shots, 7, 1));
        const auto t1 = std::chrono::steady_clock::now();
        const double seconds =
            std::chrono::duration<double>(t1 - t0).count() / shots;
        benchio::record("frame_t1_characterization_" +
                        std::to_string(n) + "q")
            .label("lanes", std::to_string(kFrameLanes))
            .metric("shots", shots)
            .metric("ns_per_shot", seconds * 1e9)
            .metric("shots_per_sec", 1.0 / seconds);
        std::printf("frame %3dq lanes=%3d: %7.0f ns/shot\n", n,
                    kFrameLanes, seconds * 1e9);
    }
}

void
runExperiment()
{
    benchio::open("shot_throughput",
                  "dense shot replay — interpreted vs per-shot "
                  "compiled vs grouped (ns per shot and shots/sec, "
                  "1 thread) at decoy and device scale, plus "
                  "frame-plane characterization at 32, 50, and 100 "
                  "qubits");
    banner("Shot throughput",
           "parallel Monte-Carlo engine, QAOA-10 on ibmq_toronto");
    std::printf("shots per run: %d, hardware threads: %u, "
                "ADAPT_NUM_THREADS resolves to %d\n",
                kShots, std::thread::hardware_concurrency(),
                defaultThreads());
    std::printf("dense kernels: %s; DD-padded variants carry %d "
                "(toronto) / %d (rome decoy-scale) DD pulses\n",
                denseKernelIsa(), ddPulseCount(paddedSchedule()),
                ddPulseCount(decoyPaddedSchedule()));
    recordHeadline("qaoa5_rome_decoy_scale", decoyMachine(),
                   decoySchedule(), kShots);
    recordHeadline("qaoa5_rome_decoy_scale_dd", decoyMachine(),
                   decoyPaddedSchedule(), kShots);
    // Same circuits with OU drift off (NoiseFlags::pauliOnly): the
    // shot-invariant-prefix configuration the grouped engine's
    // acceptance number is quoted on.
    recordHeadline("qaoa5_rome_decoy_scale_pauli",
                   decoyPauliMachine(), decoySchedule(), kShots);
    recordHeadline("qaoa5_rome_decoy_scale_dd_pauli",
                   decoyPauliMachine(), decoyPaddedSchedule(),
                   kShots);
    // Above the kMaxBatchQubits cap: records the per-shot fallback
    // (grouped metrics degenerate) next to the small-register wins.
    recordHeadline("qaoa10_toronto", machine(), program().schedule,
                   kPaddedShots);
    recordFrameSweep();
    registerBenchmarks();
}

} // namespace

ADAPT_BENCH_MAIN(runExperiment)
