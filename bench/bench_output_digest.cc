/**
 * @file
 * Output digest of a fixed corpus of dense and batch-frame jobs, for
 * checking that a change leaves every sampled distribution
 * bit-identical.
 *
 * Every job runs through the public NoisyMachine API and is reduced
 * to one 64-bit digest over its outcome keys and counts; the digests
 * fold, in job order, into one total per section.  Build this file
 * against two revisions, run both with the same --shots and compare
 * the totals: equal totals mean equal outputs on every job (up to a
 * 64-bit hash collision).
 *
 * Dense corpus (forced dense backend):
 *  - static: the 11 Table 4 programs on ibmq_toronto and
 *    ibmq_guadalupe, each as the routed program, its All-DD (XY4)
 *    padding, its seeded decoy and the All-DD decoy, under four noise
 *    flag sets (all, all but OU, Pauli-only, all with twirled coherent
 *    noise), run compiled at two seeds and interpreted at one;
 *  - dynamic: 120 seeded random dynamic circuits of width 2-8 on a
 *    synthetic line under every noise channel (XY4 on every other
 *    one), with final measurements mid-circuit, repeated
 *    measurements, resets, X / Z feedback, T / RZ gates, delays and
 *    CX, run compiled and interpreted at one seed.
 *
 * Each interpreted job also gates its compiled twin (same name, same
 * seed): the two must have equal digests, as the compiled engine is
 * bit-identical to the interpreted reference.  That is 352 static and
 * 120 dynamic pairs.
 *
 * Frame corpus (forced stabilizer backend, so every job runs the
 * batch Pauli-frame engine): 60 seeded random Clifford circuits of
 * width 2-12 on a synthetic line, static and dynamic, with and
 * without XY4 padding, under Pauli-only or T1-only noise; a 2-qubit
 * chain of re-superposed long idles whose lanes leave the plane pass
 * and fire again inside their branch tails; a distance-5
 * syndrome-extraction workload; and 20- and 30-qubit idle tails.  Each
 * runs kFrameShots (2,065) shots, prepared afresh on 1 and on 4
 * threads; the two must have equal digests.  Older revisions, which
 * nested branch tails up to a configurable depth, printed one frame
 * section per depth (frame/d8/..., d2, d1, d0); compare their d1 job
 * lines and "frame total d1" with this section's frame/... lines and
 * "frame total".
 *
 * Usage: bench_output_digest [--shots=N] [--bench_json=PATH]
 * (default 256 shots per dense job).  Prints one line per job, the
 * dense total and pair count, then the frame total;
 * --bench_json records the same digests as hex labels.  Exits 1,
 * naming each job, when a compiled dense job's digest differs from
 * its interpreted twin's or a frame job's 1-thread digest differs
 * from its 4-thread one.
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "adapt/decoy.hh"
#include "common/logging.hh"
#include "bench_io.hh"
#include "dd/sequences.hh"
#include "noise/machine.hh"
#include "transpile/decompose.hh"
#include "transpile/schedule.hh"
#include "transpile/transpiler.hh"
#include "workloads/benchmarks.hh"

using namespace adapt;

namespace
{

/** splitmix64 finalizer over (h ^ v): order-sensitive word fold. */
uint64_t
fold(uint64_t h, uint64_t v)
{
    uint64_t z = (h ^ v) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Digest of a sampled distribution: its outcome keys and counts. */
uint64_t
digest(const Distribution &dist)
{
    const auto total = static_cast<double>(dist.totalSamples());
    uint64_t h = fold(0, dist.totalSamples());
    for (const auto &[key, prob] : dist.probabilities()) {
        h = fold(h, key);
        h = fold(h, static_cast<uint64_t>(std::llround(prob * total)));
    }
    return h;
}

std::string
hex(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** The four flag sets of the static corpus, with their names. */
std::vector<std::pair<std::string, NoiseFlags>>
flagSets()
{
    NoiseFlags no_ou = NoiseFlags::all();
    no_ou.ouDephasing = false;
    NoiseFlags twirled = NoiseFlags::all();
    twirled.twirlCoherent = true;
    return {{"all", NoiseFlags::all()},
            {"no_ou", no_ou},
            {"pauli", NoiseFlags::pauliOnly()},
            {"twirled", twirled}};
}

/**
 * A seeded random dynamic circuit over a line of @p width qubits: now
 * and then a qubit is measured for the last time and leaves the op
 * pool; a closing readout skips some of the qubits left.
 */
Circuit
dynamicCircuit(int width, uint64_t seed)
{
    Rng rng(seed * 104729 + 3);
    const int clbits = width + 1;
    auto clbit = [&] {
        return static_cast<int>(
            rng.uniformInt(static_cast<uint64_t>(clbits)));
    };
    Circuit c(width, clbits);
    std::vector<bool> done(static_cast<size_t>(width), false);
    int live = width;
    auto alive = [&](QubitId q) {
        return q >= 0 && q < width && !done[static_cast<size_t>(q)];
    };
    for (int layer = 0; layer < 10 * width; layer++) {
        QubitId q = 0;
        do {
            q = static_cast<QubitId>(
                rng.uniformInt(static_cast<uint64_t>(width)));
        } while (!alive(q));
        if (live > 1 && rng.bernoulli(0.08)) {
            c.measure(q, clbit());
            done[static_cast<size_t>(q)] = true;
            live--;
            continue;
        }
        switch (rng.uniformInt(11)) {
          case 0: c.h(q); break;
          case 1: c.t(q); break;
          case 2: c.rz(rng.uniform(-kPi, kPi), q); break;
          case 3: c.sx(q); break;
          case 4: c.delay(300.0 + 600.0 * rng.uniform(), q); break;
          case 5: c.measure(q, clbit()); break;
          case 6: c.reset(q); break;
          case 7: c.xIf(q, clbit()); break;
          case 8: c.zIf(q, clbit()); break;
          default: {
            const QubitId b = alive(q + 1) ? q + 1 : q - 1;
            if (alive(b))
                c.cx(q, b);
            else
                c.h(q);
            break;
          }
        }
    }
    for (QubitId q = 0; q < width; q++) {
        if (alive(q) && rng.bernoulli(0.75))
            c.measure(q, clbit());
    }
    return c;
}

struct Digester
{
    int shots = 256;
    uint64_t total = 0;
    int jobs = 0;

    /** Compiled digests by "name/seed", awaiting their interpreted
     *  twin; and the twins compared so far. */
    std::map<std::string, uint64_t> compiled;
    int pairs = 0;
    int pairsDiffer = 0;

    void
    run(const NoisyMachine &machine, const ScheduledCircuit &sched,
        const std::string &name, uint64_t seed, ExecMode mode)
    {
        const std::string job =
            name + (mode == ExecMode::Compiled ? "/compiled/"
                                               : "/interpreted/") +
            std::to_string(seed);
        const uint64_t d = digest(machine.run(
            sched, shots, seed, /*threads=*/0, BackendKind::Dense, mode));
        total = fold(total, d);
        jobs++;
        std::printf("%s %s\n", hex(d).c_str(), job.c_str());
        benchio::record(job).label("digest", hex(d));

        const std::string pair = name + "/" + std::to_string(seed);
        if (mode == ExecMode::Compiled) {
            compiled[pair] = d;
            return;
        }
        const auto twin = compiled.find(pair);
        if (twin == compiled.end())
            return;
        pairs++;
        if (twin->second != d) {
            pairsDiffer++;
            std::fprintf(stderr,
                         "compiled != interpreted: %s (%s vs %s)\n",
                         pair.c_str(), hex(twin->second).c_str(),
                         hex(d).c_str());
        }
    }
};

void
staticCorpus(Digester &dg)
{
    for (const Device &device :
         {Device::ibmqToronto(), Device::ibmqGuadalupe()}) {
        const Calibration cal = device.calibration(0);
        for (const Workload &w : paperBenchmarks()) {
            const CompiledProgram program =
                transpile(w.circuit, device, cal);
            const ScheduledCircuit decoy = reschedule(
                makeDecoy(program.physical, DecoyOptions{}).circuit,
                device, cal);
            const std::vector<std::pair<std::string, ScheduledCircuit>>
                variants = {
                    {"program", program.schedule},
                    {"all_dd", insertDDAll(program.schedule, cal,
                                           DDOptions{})},
                    {"decoy", decoy},
                    {"decoy_all_dd", insertDDAll(decoy, cal, DDOptions{})},
                };
            for (const auto &[fname, flags] : flagSets()) {
                const NoisyMachine machine(device, 0, flags);
                for (const auto &[vname, sched] : variants) {
                    const std::string name = device.name() + "/" + w.name +
                                             "/" + vname + "/" + fname;
                    dg.run(machine, sched, name, 11, ExecMode::Compiled);
                    dg.run(machine, sched, name, 12, ExecMode::Compiled);
                    dg.run(machine, sched, name, 11,
                           ExecMode::Interpreted);
                }
            }
        }
    }
}

void
dynamicCorpus(Digester &dg)
{
    for (int i = 0; i < 120; i++) {
        const int width = 2 + i % 7;
        const auto seed = static_cast<uint64_t>(5000 + i);
        const Device device =
            Device::synthetic(Topology::linear(width), seed);
        const Calibration cal = device.calibration(0);
        ScheduledCircuit sched =
            schedule(decompose(dynamicCircuit(width, seed)),
                     device.topology(), cal, ScheduleMode::Alap);
        if (i % 2 == 1)
            sched = insertDDAll(sched, cal, DDOptions{});
        const NoisyMachine machine(device);
        const std::string name = "dynamic/" + std::to_string(i) + "/w" +
                                 std::to_string(width);
        dg.run(machine, sched, name, seed, ExecMode::Compiled);
        dg.run(machine, sched, name, seed, ExecMode::Interpreted);
    }
}

/** Shots of every frame job, whatever --shots says: eight full
 *  256-lane blocks and a partial one, so the 4-thread run splits
 *  each job across chunks. */
constexpr int kFrameShots = 8 * 256 + 17;

/** A frame-corpus job: the device outlives the machines built on it. */
struct FrameJob
{
    std::string name;
    Device device;
    NoiseFlags flags;
    ScheduledCircuit sched;
    uint64_t seed = 0;
};

/**
 * A seeded random Clifford circuit over a line of @p width qubits: H,
 * S, SX, CX, CZ and idle delays, then a readout of every qubit; a
 * dynamic one also measures mid-circuit, resets, and feeds X / Z back
 * on recorded bits.
 */
Circuit
cliffordCircuit(int width, bool dynamic, uint64_t seed)
{
    Rng rng(seed * 7919 + 5);
    const int clbits = width + 1;
    auto clbit = [&] {
        return static_cast<int>(
            rng.uniformInt(static_cast<uint64_t>(clbits)));
    };
    Circuit c(width, clbits);
    for (int layer = 0; layer < 8 * width; layer++) {
        const auto q = static_cast<QubitId>(
            rng.uniformInt(static_cast<uint64_t>(width)));
        const QubitId b = q + 1 < width ? q + 1 : q - 1;
        switch (rng.uniformInt(dynamic ? 11 : 7)) {
          case 0: c.h(q); break;
          case 1: c.s(q); break;
          case 2: c.sx(q); break;
          case 3: c.delay(500.0 + 3000.0 * rng.uniform(), q); break;
          case 4:
          case 5: c.cx(q, b); break;
          case 6: c.cz(q, b); break;
          case 7: c.measure(q, clbit()); break;
          case 8: c.reset(q); break;
          case 9: c.xIf(q, clbit()); break;
          default: c.zIf(q, clbit()); break;
        }
    }
    for (QubitId q = 0; q < width; q++)
        c.measure(q, q);
    return c;
}

std::vector<FrameJob>
frameCorpus()
{
    NoiseFlags t1_only = NoiseFlags::none();
    t1_only.t1Damping = true;
    std::vector<FrameJob> jobs;
    auto add = [&](std::string name, Device device, NoiseFlags flags,
                   const Circuit &c, ScheduleMode mode, bool with_dd,
                   uint64_t seed) {
        const Calibration cal = device.calibration(0);
        ScheduledCircuit sched =
            schedule(decompose(c), device.topology(), cal, mode);
        if (with_dd)
            sched = insertDDAll(sched, cal, DDOptions{});
        jobs.push_back({std::move(name), std::move(device), flags,
                        std::move(sched), seed});
    };
    for (int i = 0; i < 60; i++) {
        const int width = 2 + i % 11;
        const bool dynamic = i % 2 == 1;
        const bool with_dd = i / 2 % 2 == 1;
        const bool pauli = i / 4 % 2 == 0;
        const auto seed = static_cast<uint64_t>(7000 + i);
        add("fuzz/" + std::to_string(i) + "/w" + std::to_string(width) +
                (dynamic ? "/dynamic" : "/static") +
                (with_dd ? "/dd" : "") + (pauli ? "/pauli" : "/t1"),
            Device::synthetic(Topology::linear(width), seed),
            pauli ? NoiseFlags::pauliOnly() : t1_only,
            cliffordCircuit(width, dynamic, seed), ScheduleMode::Alap,
            with_dd, seed);
    }

    Circuit chain(2);
    for (int k = 0; k < 6; k++) {
        chain.h(0);
        chain.delay(40000.0, 0);
    }
    chain.measureAll();
    add("heavy_fire", Device::synthetic(Topology::linear(2), 74),
        t1_only, chain, ScheduleMode::Alap, false, 9);

    add("syndrome_d5_r3", Device::synthetic(Topology::linear(9), 79),
        NoiseFlags::pauliOnly(), makeSyndromeExtraction(5, 3),
        ScheduleMode::Alap, false, 17);

    for (const int n : {20, 30}) {
        Circuit idle(n);
        for (QubitId q = 0; q < n; q++) {
            idle.h(q);
            idle.delay(20000.0, q);
            idle.h(q);
        }
        idle.measureAll();
        add("tail_idle_" + std::to_string(n) + "q",
            Device::synthetic(Topology::grid(10, 10)),
            NoiseFlags::pauliOnly(), idle, ScheduleMode::Asap, true, 31);
    }
    return jobs;
}

/** Digest of @p job prepared afresh and run on @p threads threads. */
uint64_t
frameDigest(const FrameJob &job, int threads)
{
    const NoisyMachine machine(job.device, 0, job.flags);
    const PreparedCircuit prepared =
        machine.prepare(job.sched, BackendKind::Stabilizer);
    if (!prepared.frameBatched())
        fatal("frame corpus job " + job.name + " left the frame engine");
    return digest(machine.run(prepared, kFrameShots, job.seed, threads));
}

/** Run the frame corpus; returns the number of jobs whose 1-thread
 *  and 4-thread digests differ. */
int
frameSection()
{
    const std::vector<FrameJob> jobs = frameCorpus();
    int differ = 0;
    uint64_t total = 0;
    for (const FrameJob &job : jobs) {
        const std::string name = "frame/" + job.name;
        const uint64_t serial = frameDigest(job, 1);
        const uint64_t threaded = frameDigest(job, 4);
        total = fold(total, serial);
        std::printf("%s %s\n", hex(serial).c_str(), name.c_str());
        benchio::record(name).label("digest", hex(serial));
        if (serial != threaded) {
            differ++;
            std::fprintf(stderr, "1 thread != 4 threads: %s (%s vs %s)\n",
                         name.c_str(), hex(serial).c_str(),
                         hex(threaded).c_str());
        }
    }
    std::printf("frame total %s (%zu jobs, %d shots each)\n",
                hex(total).c_str(), jobs.size(), kFrameShots);
    benchio::record("frame_total")
        .label("digest", hex(total))
        .metric("jobs", static_cast<double>(jobs.size()))
        .metric("shots", kFrameShots);
    return differ;
}

} // namespace

int
main(int argc, char **argv)
{
    benchio::init(argc, argv);
    Digester dg;
    constexpr const char *kShots = "--shots=";
    for (int i = 1; i < argc; i++) {
        if (std::strncmp(argv[i], kShots, std::strlen(kShots)) != 0)
            continue;
        char *end = nullptr;
        const long shots = std::strtol(argv[i] + std::strlen(kShots),
                                       &end, 10);
        if (*end != '\0' || shots < 1 || shots > (1L << 24)) {
            std::fprintf(stderr, "bad %s\n", argv[i]);
            return 2;
        }
        dg.shots = static_cast<int>(shots);
    }
    benchio::open("bench_output_digest",
                  "64-bit digest of each dense and batch-frame job's "
                  "outcome keys and counts, over fixed corpora");
    staticCorpus(dg);
    dynamicCorpus(dg);
    std::printf("total %s (%d jobs, %d shots each)\n",
                hex(dg.total).c_str(), dg.jobs, dg.shots);
    std::printf("pairs %d compiled vs interpreted, %d differ\n", dg.pairs,
                dg.pairsDiffer);
    benchio::record("total")
        .label("digest", hex(dg.total))
        .metric("jobs", dg.jobs)
        .metric("shots", dg.shots)
        .metric("pairs", dg.pairs)
        .metric("pairs_differ", dg.pairsDiffer);
    const int frame_differ = frameSection();
    benchio::finish();
    return dg.pairsDiffer == 0 && frame_differ == 0 ? 0 : 1;
}
