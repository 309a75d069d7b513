/**
 * @file
 * NoisyMachine: the simulated quantum computer.
 *
 * This is the stand-in for the IBMQ hardware endpoint: it accepts a
 * scheduled executable (with or without DD pulses) and returns a
 * sampled output distribution.  Each shot is one Monte-Carlo
 * trajectory on a pluggable simulator backend (sim/backend.hh).
 *
 * On the dense backend, idle dephasing is applied as *coherent* RZ
 * rotations interleaved in time with the circuit's pulses, so DD echo
 * physics (refocusing, pulse-spacing sensitivity) emerges exactly
 * rather than by construction.  All-Clifford executables whose
 * enabled noise channels are Pauli-expressible — every DD-padded
 * decoy and characterization circuit under the ablation flags — are
 * automatically routed to the stabilizer tableau instead, which runs
 * the same trajectories at polynomial cost (Sec. 4.2 / Table 2
 * scalability).
 */

#ifndef ADAPT_NOISE_MACHINE_HH
#define ADAPT_NOISE_MACHINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/cancellation.hh"
#include "common/stats.hh"
#include "device/device.hh"
#include "noise/compiled.hh"
#include "noise/noise_model.hh"
#include "sim/backend.hh"
#include "sim/frame_batch.hh"
#include "transpile/schedule.hh"

namespace adapt
{

/** Internal prepared-job state (plan + compiled program). */
struct PreparedJob;

/** Process-wide skeleton cache (noise/program_cache.hh). */
class ProgramCache;

/**
 * How shots execute.
 *
 * Dense jobs:
 *  - Compiled (default): the job is lowered once into a flat
 *    ShotProgram (noise/compiled.hh) and every shot walks it once,
 *    each op drawing against precomputed fixed-point thresholds and
 *    applying its outcome.  Bit-identical to Interpreted for any seed
 *    and thread count.
 *  - Interpreted: the historical per-shot plan walk (the reference
 *    semantics the compiled path is tested against).
 *
 * Stabilizer jobs:
 *  - Compiled (default): the batched Pauli-frame engine
 *    (sim/frame_batch.hh) — one reference tableau simulation at
 *    compile time, then bit-packed frames propagating kFrameLanes
 *    shots per pass.  Bit-identical to itself for any thread count
 *    and batch-vs-serial, and statistically equivalent (not
 *    draw-identical) to Interpreted; jobs with per-shot OU twirl
 *    draws or conditional non-Pauli gates fall back to Interpreted.
 *  - Interpreted: one full Aaronson-Gottesman tableau per shot (the
 *    reference semantics the frame engine is tested against).
 */
enum class ExecMode
{
    Compiled,
    Interpreted,
};

/**
 * A scheduled executable lowered and compiled once for a specific
 * NoisyMachine (calibration + noise flags baked in), reusable across
 * run() calls and seeds.  Cheap to copy (shared immutable state).
 * Using it with a different machine than the one that prepared it is
 * undefined.
 */
class PreparedCircuit
{
  public:
    PreparedCircuit() = default;

    /** Resolved backend this job will execute on. */
    BackendKind backend() const;

    /** True when this stabilizer job carries a compiled FrameProgram
     *  (ExecMode::Compiled will run the batch frame engine). */
    bool frameBatched() const;

    /** Branch tails compiled so far: they compile lazily, when a lane
     *  first fires through their checkpoint (0 off the frame path). */
    size_t compiledTails() const;

    /** True once prepare() has populated this handle. */
    bool valid() const { return impl_ != nullptr; }

  private:
    friend class NoisyMachine;
    std::shared_ptr<const PreparedJob> impl_;
};

/**
 * Shots per cancellation block on the dense / per-shot paths: the
 * granularity at which wave-structured cancellable runs commit work
 * (the batch frame engine's natural block is kFrameLanes instead),
 * and the unit of a shard range.  Per-shot RNG streams make any
 * block size prefix-exact; this one just bounds how much work a
 * multi-chunk run can lose to a stop request.
 */
constexpr int kShotBlock = 64;

/**
 * Caller-supplied controls for a cancellable run: a stop token
 * (cancel flag and/or deadline, polled at shot-block boundaries) and
 * an optional progress callback.
 *
 * progress(shots_done) fires on the driving thread after every
 * committed wave of blocks with the cumulative shot count — the
 * JobServer uses it for live progress and as the deterministic
 * injection point for worker-stall faults.  It is never called
 * concurrently for a single run().
 */
struct RunControl
{
    CancellationToken token;
    std::function<void(int64_t)> progress;
};

/**
 * Zero-valued stub, kept only because perfbench/src/engine_counters.hh
 * reads it.  No execution path fills these counters — every compiled
 * dense shot runs ShotReplayer — so perfbench's dense.grouped_*
 * metrics read 0.  ROADMAP.md's metrics-registry item deletes the
 * struct together with that header.
 */
struct DenseBatchStats
{
    int64_t shots = 0;
    int64_t groups = 0;
    int64_t batchedShots = 0;
    int64_t noErrorShots = 0;

    void merge(const DenseBatchStats &other)
    {
        shots += other.shots;
        groups += other.groups;
        batchedShots += other.batchedShots;
        noErrorShots += other.noErrorShots;
    }
};

/**
 * Outcome of a cancellable run.  When a stop request lands mid-job,
 * dist holds the histogram of the shot blocks completed before it —
 * a contiguous prefix [0, shotsDone) that is bit-identical to the
 * first shotsDone shots of an uninterrupted run with the same seed
 * (per-block RNG streams; equivalently, to run(prepared, shotsDone,
 * seed) exactly).
 */
struct RunOutcome
{
    Distribution dist;
    int64_t shotsDone = 0;
    bool partial = false;               //!< stopped before all shots
    StopCause cause = StopCause::None;  //!< why, when partial
    FrameBatchStats frameStats;         //!< batch frame path only
    DenseBatchStats denseStats;         //!< always zero (see above)
};

/** The simulated hardware endpoint. */
class NoisyMachine
{
  public:
    /**
     * @param device Machine (topology + calibration generator).
     * @param cycle Calibration cycle to load.
     * @param flags Noise channels to enable.
     */
    explicit NoisyMachine(const Device &device, int cycle = 0,
                          NoiseFlags flags = NoiseFlags::all());

    const Calibration &calibration() const { return cal_; }
    const Device &device() const { return device_; }
    const NoiseFlags &flags() const { return flags_; }

    /**
     * Execute @p sched for @p shots trajectories.
     *
     * Shots run in parallel across the process thread pool.  Every
     * shot draws from RNG streams forked from (run_seed, shot index)
     * alone, so the output distribution is bit-identical for any
     * thread count, including a serial run.
     *
     * The simulator backend is pluggable: BackendKind::Auto (default)
     * inspects the executable — every gate Clifford, every enabled
     * noise channel Pauli-expressible — and routes eligible jobs to
     * the O(n*m)-per-shot stabilizer fast path, falling back to the
     * dense state vector otherwise.  Forcing
     * BackendKind::Stabilizer on an ineligible job throws UsageError.
     *
     * @param run_seed Seed for this job; identical seeds reproduce
     *                 identical output distributions.
     * @param threads Shot parallelism; >= 1 forces that many chunks,
     *                <= 0 (default) uses ADAPT_NUM_THREADS or the
     *                hardware concurrency.
     * @param backend Simulator backend selection.
     * @return Sampled distribution over the executable's classical
     *         bits.
     */
    Distribution run(const ScheduledCircuit &sched, int shots,
                     uint64_t run_seed = 1, int threads = 0,
                     BackendKind backend = BackendKind::Auto,
                     ExecMode mode = ExecMode::Compiled) const;

    /**
     * Lower and compile @p sched once, for repeated execution.
     *
     * Dense jobs are compiled into a flat ShotProgram (the expensive
     * shot-invariant work: plan lowering, pulse-product fusion,
     * noise-constant precomputation); stabilizer jobs are compiled
     * into a FrameProgram for the batch Pauli-frame engine (the
     * reference tableau simulation runs here, once).  The handle is
     * immutable and thread-safe to share.
     */
    PreparedCircuit prepare(const ScheduledCircuit &sched,
                            BackendKind backend = BackendKind::Auto) const;

    /** Execute a prepared job; identical output to the run() overload
     *  taking the schedule it was prepared from. */
    Distribution run(const PreparedCircuit &prepared, int shots,
                     uint64_t run_seed = 1, int threads = 0,
                     ExecMode mode = ExecMode::Compiled) const;

    /**
     * Execute a batch of independent jobs, one distribution per job.
     *
     * Jobs fan out across the process thread pool (outer loop), and
     * each job's run() splits its shots into chunks on the same pool,
     * which threads left idle by short jobs pick up, without ever
     * oversubscribing it.  Every job draws from RNG streams
     * forked from its own seed alone, so the output is bit-identical
     * to jobs.size() serial run() calls (with the same seeds) at any
     * thread count.
     *
     * This is the execution layer under the ADAPT mask search: all
     * 2^k candidate masks of a neighbourhood are independent given
     * the frozen bits, so the search submits each neighbourhood as
     * one batch (adapt/search.cc), as do the Runtime-Best candidate
     * sweep and the characterization sweeps.
     *
     * @param jobs Scheduled executables; may be empty (returns {}).
     * @param shots Trajectories per job.
     * @param seeds One run seed per job (same contract as run()).
     *              @pre seeds.size() == jobs.size()
     * @param threads Job-level parallelism; <= 0 (default) uses
     *                ADAPT_NUM_THREADS or the hardware concurrency.
     * @param backend Backend selection, resolved per job (Auto may
     *                pick different backends for different jobs).
     * @return outputs[i] == run(jobs[i], shots, seeds[i], ..) for
     *         every i.
     */
    std::vector<Distribution>
    runBatch(std::span<const ScheduledCircuit> jobs, int shots,
             std::span<const uint64_t> seeds, int threads = 0,
             BackendKind backend = BackendKind::Auto,
             ExecMode mode = ExecMode::Compiled) const;

    /** Batched execution of pre-prepared jobs (one compilation per
     *  job, shared by all its shots); same contract as above. */
    std::vector<Distribution>
    runBatch(std::span<const PreparedCircuit> jobs, int shots,
             std::span<const uint64_t> seeds, int threads = 0,
             ExecMode mode = ExecMode::Compiled) const;

    /**
     * Cancellable execution of a prepared job.
     *
     * Identical to run() while control stays quiet — same chunking,
     * same RNG streams, bit-identical output.  When control.token is
     * armed, shots execute in waves of fixed blocks (kShotBlock shots
     * on the dense / per-shot paths, kFrameLanes on the batch frame
     * path) and the token is polled between waves — single-chunk
     * dense runs poll per shot — so a cancel or deadline takes
     * effect within one shot-chunk and the returned prefix is
     * bit-identical to an uninterrupted run's first shotsDone shots.
     *
     * control.progress (if set) fires after each committed wave with
     * the cumulative shot count.
     */
    RunOutcome runPartial(const PreparedCircuit &prepared, int shots,
                          uint64_t run_seed = 1, int threads = 0,
                          const RunControl &control = {},
                          ExecMode mode = ExecMode::Compiled) const;

    /**
     * Cancellable batch: jobs check control.token before starting
     * (a stopped token skips the job entirely — shotsDone 0, partial,
     * cause set) and each started job runs cancellably under the same
     * token.  Jobs that completed before the stop request are
     * bit-identical to solo run() calls no matter when a sibling was
     * cancelled (per-job seeds).  control.progress is not forwarded
     * to the per-job runs (jobs execute concurrently; the callback
     * contract is per-run).
     */
    std::vector<RunOutcome>
    runBatchPartial(std::span<const PreparedCircuit> jobs, int shots,
                    std::span<const uint64_t> seeds, int threads,
                    const RunControl &control,
                    ExecMode mode = ExecMode::Compiled) const;

    /**
     * @name Shard-range execution (serve/shard_executor.hh)
     *
     * A job's shot range factors into fixed blocks — kFrameLanes on
     * the batch frame path, kShotBlock otherwise — and every block's
     * randomness is forked from (run_seed, absolute block / shot
     * index) alone.  runShardRange executes one contiguous block
     * subrange of the compiled job and returns its histogram as
     * sorted (key, count) items; because blocks are independent,
     * concatenating the item lists of any partition of
     * [0, blockCount) and folding duplicate keys (mergeShardItems)
     * reproduces run()'s output bit for bit — regardless of which
     * process ran which range, in what order, or how many times a
     * range was re-executed after a failure.
     * @{
     */

    /** Shots per shard block for this prepared job. */
    int64_t shardBlockShots(const PreparedCircuit &prepared) const;

    /** Number of shard blocks covering @p shots. */
    int64_t shardBlockCount(const PreparedCircuit &prepared,
                            int shots) const;

    /**
     * Execute blocks [block_lo, block_hi) of a @p shots-shot job
     * serially (shard workers are single-threaded by design — the
     * parallelism is the process fan-out) and return the subrange's
     * histogram as key-sorted, key-unique (outcome, count) items.
     *
     * @param progress Optional; fires after each committed block with
     *        the cumulative shots done *within this range* — the
     *        worker's heartbeat hook.
     */
    std::vector<std::pair<uint64_t, uint64_t>>
    runShardRange(const PreparedCircuit &prepared, int shots,
                  int64_t block_lo, int64_t block_hi,
                  uint64_t run_seed = 1,
                  const std::function<void(int64_t)> &progress = {}) const;

    /** @} */

    /**
     * The backend Auto would pick for @p sched under this machine's
     * noise flags (introspection for logs / benches / tests).
     */
    BackendKind chooseBackend(const ScheduledCircuit &sched) const;

    /**
     * The skeleton cache prepare() consults: compilation is split
     * into a device-independent structure phase (ProgramSkeleton,
     * cached under a fingerprint of circuit + flags + backend) and a
     * cheap per-calibration bind phase, so re-preparing the same
     * executable against a drifted calibration or a repeated
     * JobServer submission skips the expensive half (the cache
     * retains a skeleton once its structure recurs; see
     * ProgramCache).  Defaults to ProgramCache::processShared();
     * nullptr compiles every prepare cold.
     */
    void setProgramCache(ProgramCache *cache) { cache_ = cache; }

  private:
    /** prepare() with the shot-program compilation optional (skipped
     *  for pure ExecMode::Interpreted runs, which never read it). */
    PreparedCircuit prepareImpl(const ScheduledCircuit &sched,
                                BackendKind backend,
                                bool compile) const;

    const Device &device_;
    Calibration cal_;
    NoiseFlags flags_;
    ProgramCache *cache_ = nullptr;
};

/**
 * Fold concatenated shard items (any order, duplicate keys allowed)
 * into a Distribution.  Sort + exact integer addition: the result is
 * identical for any partition of a job into ranges and any arrival
 * order of their item lists — the coordinator-side half of the
 * runShardRange contract.
 */
Distribution
mergeShardItems(std::vector<std::pair<uint64_t, uint64_t>> items);

} // namespace adapt

#endif // ADAPT_NOISE_MACHINE_HH
