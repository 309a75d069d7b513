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
 *    narrows — that regime is what the SIMD kernels, the live-width
 *    state vector and its lazy single-qubit operators attack.  The
 *    two scales straddle StateVector's eager width (6 live qubits):
 *    the 5-qubit decoy rows sweep each single-qubit op on a live
 *    qubit at once, and the 14-qubit rows hold pulses and idle
 *    phases as pending 2x2 operators, so the one-thread compiled
 *    rows of both are the recorded case for that constant.  The headline rows repeat the
 *    decoy-scale pair with OU drift off (the *_pauli rows), which
 *    runs the same per-shot compiled replay as full noise;
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

#include "common/parallel.hh"
#include "dd/sequences.hh"
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
 *  OU drift off): programs without per-shot OU phase slots.  QAOA
 *  decoys are non-Clifford, so this config still runs the dense
 *  backend, on the same per-shot compiled replay as full noise. */
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

/** Record one headline interpreted / compiled pair directly (the
 *  registered benchmarks re-measure the same points with more rigor;
 *  these rows make the BENCH_*.json record self-contained). */
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
    const double compiled = seconds(ExecMode::Compiled);
    benchio::record(name)
        .metric("shots", shots)
        .metric("interpreted_ns_per_shot", interpreted * 1e9)
        .metric("compiled_ns_per_shot", compiled * 1e9)
        .metric("interpreted_shots_per_sec", 1.0 / interpreted)
        .metric("compiled_shots_per_sec", 1.0 / compiled)
        .metric("speedup_compiled_vs_interpreted",
                interpreted / compiled);
    std::printf("%-28s %9.0f ns/shot interpreted, %8.0f compiled "
                "(%.2fx)\n",
                name, interpreted * 1e9, compiled * 1e9,
                interpreted / compiled);
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
                  "dense shot replay — interpreted vs compiled "
                  "(ns per shot and shots/sec, 1 thread) at decoy "
                  "and device scale, plus "
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
    // Same circuits with OU drift off (NoiseFlags::pauliOnly): no
    // per-shot OU phase slots, same per-shot compiled replay.
    recordHeadline("qaoa5_rome_decoy_scale_pauli",
                   decoyPauliMachine(), decoySchedule(), kShots);
    recordHeadline("qaoa5_rome_decoy_scale_dd_pauli",
                   decoyPauliMachine(), decoyPaddedSchedule(),
                   kShots);
    // The 14-active-qubit routing, where amplitude sweeps dominate.
    recordHeadline("qaoa10_toronto", machine(), program().schedule,
                   kPaddedShots);
    recordFrameSweep();
    registerBenchmarks();
}

} // namespace

ADAPT_BENCH_MAIN(runExperiment)
