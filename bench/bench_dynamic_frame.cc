/**
 * @file
 * Dynamic-circuit throughput on the batch Pauli-frame engine.
 *
 * PR-7 acceptance artefact: repetition-code syndrome extraction with
 * live feedback (mid-circuit measurement, clbit reuse, conditional X,
 * active reset — workloads/benchmarks.hh) executed in-frame by the
 * batch engine (ExecMode::Compiled) versus the per-shot tableau
 * oracle (ExecMode::Interpreted), at a decoy-scale and a device-scale
 * instance.  The headline metric is the speedup, recorded in
 * BENCH_pr7.json with the acceptance floor of 10x at the larger
 * instance; the stats rows prove the frame engine kept every lane
 * in-frame (branch tails, zero deferred shots).
 *
 * The tail_idle_{20,50,100}q rows widen frame_char_100q's tail job
 * (|+>, 20 us XY4-padded idle, X readout, 10x10 synthetic grid) and
 * record seconds per shot (cold: tails compile on the lanes' first
 * fires; warm: cached), the tails compiled, the lanes that finished
 * on a tail and those that fired again there (deferred: finished on
 * the exact tableau), and the process peak RSS.  They run in
 * ascending width, so each row's peak is its own.
 *
 * Registered google-benchmark kernels re-measure the same points
 * with more rigor, plus the one-time FrameProgram compilation cost
 * (reference tableau + branch-tail eligibility analysis) that the
 * shots amortize.
 */

#include "bench_common.hh"

#include <sys/resource.h>

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "common/parallel.hh"
#include "dd/sequences.hh"
#include "noise/machine.hh"
#include "transpile/decompose.hh"
#include "transpile/schedule.hh"

using namespace adapt;

namespace
{

constexpr int kShots = 4096;

/** One syndrome-extraction instance scheduled for a linear device. */
struct Instance
{
    const char *name;
    int dataQubits;
    int rounds;
    Device device;
    NoisyMachine machine;
    ScheduledCircuit sched;

    Instance(const char *instance_name, int data_qubits, int rounds_)
        : name(instance_name), dataQubits(data_qubits),
          rounds(rounds_),
          device(Device::synthetic(
              Topology::linear(2 * data_qubits - 1), 7)),
          machine(device, 0, NoiseFlags::pauliOnly()),
          sched(schedule(
              decompose(makeSyndromeExtraction(data_qubits, rounds_)),
              device.topology(), device.calibration(0),
              ScheduleMode::Alap))
    {
    }
};

Instance &
decoyScale()
{
    static Instance i("syndrome_d5_r3", 5, 3);
    return i;
}

Instance &
deviceScale()
{
    static Instance i("syndrome_d11_r5", 11, 5);
    return i;
}

void
runThroughput(benchmark::State &state, Instance &inst, ExecMode mode,
              int threads)
{
    const PreparedCircuit prepared =
        inst.machine.prepare(inst.sched, BackendKind::Stabilizer);
    uint64_t seed = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            inst.machine.run(prepared, kShots, ++seed, threads, mode));
    }
    state.SetItemsProcessed(state.iterations() * kShots);
    state.counters["shots_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * kShots,
        benchmark::Counter::kIsRate);
}

void
BM_SyndromeFrameBatch(benchmark::State &state)
{
    runThroughput(state, deviceScale(), ExecMode::Compiled,
                  static_cast<int>(state.range(0)));
}

void
BM_SyndromeInterpreted(benchmark::State &state)
{
    runThroughput(state, deviceScale(), ExecMode::Interpreted,
                  static_cast<int>(state.range(0)));
}

void
BM_SyndromeDecoyFrameBatch(benchmark::State &state)
{
    runThroughput(state, decoyScale(), ExecMode::Compiled,
                  static_cast<int>(state.range(0)));
}

void
BM_SyndromeDecoyInterpreted(benchmark::State &state)
{
    runThroughput(state, decoyScale(), ExecMode::Interpreted,
                  static_cast<int>(state.range(0)));
}

/** One-time FrameProgram compilation (reference tableau + dynamic
 *  lowering), amortized over the job's shots. */
void
BM_PrepareFrameProgram(benchmark::State &state)
{
    Instance &inst = deviceScale();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            inst.machine.prepare(inst.sched, BackendKind::Stabilizer));
    }
}

void
registerBenchmarks()
{
    using Bench =
        std::pair<const char *, void (*)(benchmark::State &)>;
    for (const auto &[name, fn] :
         {Bench{"BM_SyndromeFrameBatch", BM_SyndromeFrameBatch},
          Bench{"BM_SyndromeInterpreted", BM_SyndromeInterpreted},
          Bench{"BM_SyndromeDecoyFrameBatch",
                BM_SyndromeDecoyFrameBatch},
          Bench{"BM_SyndromeDecoyInterpreted",
                BM_SyndromeDecoyInterpreted}}) {
        benchmark::RegisterBenchmark(name, fn)
            ->Unit(benchmark::kMillisecond)
            ->UseRealTime()
            ->Arg(1);
    }
    benchmark::RegisterBenchmark("BM_PrepareFrameProgram",
                                 BM_PrepareFrameProgram)
        ->Unit(benchmark::kMicrosecond);
}

/** Wall seconds per shot of one kShots, single-threaded run; the
 *  run's outcome lands in @p out when given. */
double
secondsPerShot(const NoisyMachine &machine,
               const PreparedCircuit &prepared,
               ExecMode mode = ExecMode::Compiled,
               RunOutcome *out = nullptr)
{
    const auto t0 = std::chrono::steady_clock::now();
    RunOutcome r =
        machine.runPartial(prepared, kShots, 7, 1, RunControl{}, mode);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(r);
    if (out != nullptr)
        *out = std::move(r);
    return std::chrono::duration<double>(t1 - t0).count() / kShots;
}

/** Headline rows: single-threaded seconds/shot both ways, speedup,
 *  and the frame engine's own accounting of where lanes finished. */
void
recordHeadline(Instance &inst)
{
    const PreparedCircuit prepared =
        inst.machine.prepare(inst.sched, BackendKind::Stabilizer);
    // Warm-up pass: populates the lazy branch-tail cache (a one-time
    // cost shared by all subsequent runs of the prepared job) so the
    // timed runs measure steady-state throughput.
    for (const ExecMode mode :
         {ExecMode::Interpreted, ExecMode::Compiled})
        benchmark::DoNotOptimize(
            inst.machine.run(prepared, 512, 3, 1, mode));
    const double interpreted =
        secondsPerShot(inst.machine, prepared, ExecMode::Interpreted);
    RunOutcome out;
    const double frame =
        secondsPerShot(inst.machine, prepared, ExecMode::Compiled, &out);
    benchio::record(inst.name)
        .label("workload", "repetition-code syndrome extraction")
        .metric("data_qubits", inst.dataQubits)
        .metric("rounds", inst.rounds)
        .metric("shots", kShots)
        .metric("interpreted_s_per_shot", interpreted)
        .metric("frame_batch_s_per_shot", frame)
        .metric("speedup", interpreted / frame)
        .metric("tail_shots",
                static_cast<double>(out.frameStats.tailShots))
        .metric("deferred_shots",
                static_cast<double>(out.frameStats.deferredShots))
        .metric("max_tail_depth", out.frameStats.maxTailDepth);
    std::printf("%-18s %2d data / %d rounds: interpreted %.1f us, "
                "frame %.2f us per shot -> %.1fx (tails %lld, "
                "deferred %lld)\n",
                inst.name, inst.dataQubits, inst.rounds,
                interpreted * 1e6, frame * 1e6, interpreted / frame,
                static_cast<long long>(out.frameStats.tailShots),
                static_cast<long long>(out.frameStats.deferredShots));
}

/** Process peak resident set so far, in MB. */
double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB on Linux
}

/** frame_char_100q's tail job at @p n qubits: seconds per shot cold
 *  and warm, tails compiled, tail and deferred lanes, and the process
 *  peak RSS. */
void
recordTailIdle(int n)
{
    static const Device device = Device::synthetic(Topology::grid(10, 10));
    const NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    Circuit c(n);
    for (QubitId q = 0; q < n; q++) {
        c.h(q);
        c.delay(20000.0, q);
        c.h(q);
    }
    c.measureAll();
    const Calibration &cal = machine.calibration();
    const ScheduledCircuit sched = insertDDAll(
        schedule(decompose(c), device.topology(), cal, ScheduleMode::Asap),
        cal, DDOptions{});

    const PreparedCircuit prepared =
        machine.prepare(sched, BackendKind::Stabilizer);
    const double cold = secondsPerShot(machine, prepared);
    RunOutcome out;
    const double warm =
        secondsPerShot(machine, prepared, ExecMode::Compiled, &out);
    const double peak = peakRssMb();
    const std::string name = "tail_idle_" + std::to_string(n) + "q";
    benchio::record(name)
        .label("workload", "|+> idle, XY4-padded, X readout")
        .metric("qubits", n)
        .metric("shots", kShots)
        .metric("tails_cold_s_per_shot", cold)
        .metric("tails_warm_s_per_shot", warm)
        .metric("tails_compiled",
                static_cast<double>(prepared.compiledTails()))
        .metric("tail_shots",
                static_cast<double>(out.frameStats.tailShots))
        .metric("deferred_shots",
                static_cast<double>(out.frameStats.deferredShots))
        .metric("max_tail_depth", out.frameStats.maxTailDepth)
        .metric("peak_rss_mb", peak);
    std::printf("%-18s %.2f us cold / %.2f us warm per shot; %zu "
                "tails compiled, tail lanes %lld, deferred %lld, peak "
                "RSS %.0f MB\n",
                name.c_str(), cold * 1e6, warm * 1e6,
                prepared.compiledTails(),
                static_cast<long long>(out.frameStats.tailShots),
                static_cast<long long>(out.frameStats.deferredShots),
                peak);
}

void
runExperiment()
{
    benchio::open("dynamic_frame",
                  "dynamic syndrome-extraction workload: batch "
                  "Pauli-frame engine vs per-shot tableau "
                  "(seconds per shot, 1 thread)");
    banner("Dynamic frame throughput",
           "syndrome extraction with live feedback, in-frame vs "
           "per-shot tableau");
    std::printf("shots per run: %d, frame kernels: %s, hardware "
                "threads: %u\n",
                kShots, frameKernelIsa(),
                std::thread::hardware_concurrency());
    recordHeadline(decoyScale());
    recordHeadline(deviceScale());
    for (const int n : {20, 50, 100})
        recordTailIdle(n);
    registerBenchmarks();
}

} // namespace

ADAPT_BENCH_MAIN(runExperiment)
