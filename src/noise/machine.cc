#include "noise/machine.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/env.hh"
#include "common/flat_accumulator.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "noise/compiled.hh"
#include "noise/program_cache.hh"
#include "sim/backend.hh"
#include "sim/frame_batch.hh"

namespace adapt
{

NoisyMachine::NoisyMachine(const Device &device, int cycle,
                           NoiseFlags flags)
    : device_(device), cal_(device.calibration(cycle)), flags_(flags),
      cache_(ProgramCache::processShared())
{
}

/**
 * A job lowered once: the execution plan (interpreted path), the
 * resolved backend, and the compiled program its shots replay — a
 * dense ShotProgram or a stabilizer FrameProgram.
 */
struct PreparedJob
{
    ExecutionPlan plan;
    BackendKind kind = BackendKind::Dense;
    std::optional<ShotProgram> program; //!< dense jobs only
    std::optional<FrameProgram> frame;  //!< stabilizer jobs only

    /** Lazy branch-tail store, shared by every run of this job;
     *  non-null iff frame && frame->branchTails. */
    std::shared_ptr<FrameTailCache> tails;
};

BackendKind
PreparedCircuit::backend() const
{
    require(impl_ != nullptr,
            "PreparedCircuit::backend on an empty handle");
    return impl_->kind;
}

bool
PreparedCircuit::frameBatched() const
{
    require(impl_ != nullptr,
            "PreparedCircuit::frameBatched on an empty handle");
    return impl_->frame.has_value();
}

size_t
PreparedCircuit::compiledTails() const
{
    return impl_ != nullptr && impl_->tails ? impl_->tails->size() : 0;
}

namespace
{

/** Apply a uniformly random single-qubit Pauli. */
void
applyRandomPauli1Q(SimBackend &state, QubitId q, Rng &rng)
{
    state.applyPauli(static_cast<int>(rng.uniformInt(3)) + 1, q);
}

/** Apply a random non-identity two-qubit Pauli pair. */
void
applyRandomPauli2Q(SimBackend &state, QubitId a, QubitId b, Rng &rng)
{
    const auto code = static_cast<int>(rng.uniformInt(15)) + 1;
    state.applyPauli(code & 3, a);
    state.applyPauli(code >> 2, b);
}

/**
 * One Monte-Carlo trajectory on @p state — the interpreted reference
 * path.  All randomness comes from streams forked off @p shot_rng, so
 * a shot's outcome depends only on its index — never on which thread
 * runs it or in which order.  The compiled replay (noise/compiled.hh)
 * consumes the identical draw sequence and mutates the state with
 * bit-identical operands; this function remains the executable
 * specification it is tested against, and the only dense path the
 * sanitizers cannot simplify away.
 */
uint64_t
runShot(const ExecutionPlan &plan, const Calibration &cal,
        const NoiseFlags &flags, SimBackend &state,
        OutcomePacker &packer, const Rng &shot_rng)
{
    const std::vector<QubitId> &active = plan.active;
    Rng gate_rng = shot_rng.fork(0x6a7e);

    // Per-qubit OU detuning processes with private streams.
    std::vector<std::optional<OuProcess>> ou(active.size());
    std::vector<Rng> qubit_rng;
    qubit_rng.reserve(active.size());
    for (size_t ai = 0; ai < active.size(); ai++) {
        qubit_rng.push_back(shot_rng.fork(0x0b5e + ai));
        const auto &qc = cal.qubits[static_cast<size_t>(active[ai])];
        if (flags.ouDephasing) {
            ou[ai].emplace(qc.ouSigmaRadPerUs, qc.ouTauUs,
                           qubit_rng[ai]);
        }
    }

    state.init();
    packer.clear();
    std::vector<TimeNs> last_end(active.size(), -1.0);

    // Coherent (refocusable) idle noise for qubit ai over [t0, t1):
    // slow OU detuning plus crosstalk from concurrent CNOTs.  Only
    // *idle* gaps accrue coherent Z phase — during a pulse the drive
    // dominates the dynamics.
    auto coherent_idle_noise = [&](size_t ai, TimeNs t0, TimeNs t1) {
        if (t1 - t0 <= 1e-9)
            return;
        const double dt_us = (t1 - t0) * kNsToUs;

        double phase = 0.0;
        if (flags.ouDephasing) {
            const double mid_us = (t0 + t1) / 2.0 * kNsToUs;
            phase += ou[ai]->at(mid_us, qubit_rng[ai]) * dt_us;
        }
        if (flags.crosstalk) {
            for (const CrosstalkSource &src : plan.xtalk[ai]) {
                phase += src.radPerUs *
                         overlapUs(t0, t1, src.start, src.end);
            }
        }
        if (phase != 0.0) {
            if (flags.twirlCoherent) {
                // Pauli twirl of the accrued phase, applied by the
                // engine so both backends sample the identical
                // (approximate) law under this flag.
                if (qubit_rng[ai].bernoulli(twirlZProbability(phase)))
                    state.applyPauli(3, static_cast<int>(ai)); // Z
            } else {
                state.applyIdlePhase(static_cast<int>(ai), phase,
                                     qubit_rng[ai]);
            }
        }
    };

    // Markovian noise (T1 relaxation, white dephasing) acts on
    // wall-clock time — *including* gate and DD pulse durations, so a
    // dense pulse train cannot shelter a qubit from it.
    auto markovian_noise = [&](size_t ai, double dt_us) {
        if (dt_us <= 0.0)
            return;
        const int dq = static_cast<int>(ai);
        const auto &qc =
            cal.qubits[static_cast<size_t>(active[ai])];

        if (flags.t1Damping) {
            // Thinned jump sampling: fire the relaxation jump with
            // probability gamma * P(|1>); the O(gamma^2) no-jump
            // reweighting is negligible at these rates.
            const double gamma = t1JumpProbability(dt_us, qc.t1Us);
            if (qubit_rng[ai].bernoulli(gamma) &&
                qubit_rng[ai].bernoulli(state.populationOne(dq))) {
                state.applyDecayJump(dq);
            }
        }
        if (flags.whiteDephasing) {
            const double p_flip = whiteDephasingFlipProbability(
                dt_us, qc.t2WhiteUs);
            if (qubit_rng[ai].bernoulli(p_flip))
                state.applyPauli(3, dq); // Z
        }
    };

    // Noise catch-up for one operand of a step: coherent noise over
    // the idle gap, Markovian noise over gap + step.
    auto catch_up = [&](int dq, const PlanStep &step) {
        const auto ai = static_cast<size_t>(dq);
        if (last_end[ai] >= 0.0) {
            coherent_idle_noise(ai, last_end[ai], step.start);
            markovian_noise(ai, (step.end - last_end[ai]) * kNsToUs);
        } else {
            markovian_noise(ai, (step.end - step.start) * kNsToUs);
        }
        last_end[ai] = step.end;
    };

    for (const PlanStep &step : plan.steps) {
        switch (step.kind) {
          case PlanStep::Kind::Meas: {
            catch_up(step.q, step);
            bool bit = state.measure(step.q, gate_rng);
            if (flags.measurementErrors) {
                const double p_flip = bit ? step.err10 : step.err01;
                if (gate_rng.bernoulli(p_flip))
                    bit = !bit;
            }
            packer.set(step.clbit, bit);
            break;
          }
          case PlanStep::Kind::Reset: {
            // Reset as measure-and-correct: one collapse draw from
            // the gate stream (like Measure, minus readout error),
            // then a deterministic |1> -> |0> flip.
            catch_up(step.q, step);
            if (state.measure(step.q, gate_rng))
                state.applyPauli(1, step.q);
            break;
          }
          case PlanStep::Kind::Cond1Q: {
            // Feedback pulse: fires iff the classical register reads
            // 1 at this point in the shot.  No error channel and no
            // draws — RNG consumption must not depend on data.
            catch_up(step.q, step);
            if (packer.get(step.condBit)) {
                if (state.fusesMatrices())
                    state.apply1Q(step.pulses[0].matrix, step.q);
                else
                    state.applyGate(step.pulses[0].gate);
            }
            break;
          }
          case PlanStep::Kind::TwoQubit: {
            catch_up(step.q, step);
            catch_up(step.q2, step);
            Gate mapped(step.twoQubitType, {step.q, step.q2});
            state.applyGate(mapped);
            if (flags.gateErrors && gate_rng.bernoulli(step.cxError)) {
                applyRandomPauli2Q(state, step.q, step.q2, gate_rng);
            }
            break;
          }
          case PlanStep::Kind::Fused1Q: {
            catch_up(step.q, step);
            if (state.fusesMatrices()) {
                // Compose pulses; only materialize the product onto
                // the state when an error fires (or at the end).
                Matrix2 product = Matrix2::identity();
                for (const Pulse &pulse : step.pulses) {
                    product = pulse.matrix * product;
                    if (flags.gateErrors && pulse.errorProb > 0.0 &&
                        gate_rng.bernoulli(pulse.errorProb)) {
                        state.apply1Q(product, step.q);
                        applyRandomPauli1Q(state, step.q, gate_rng);
                        product = Matrix2::identity();
                    }
                }
                state.apply1Q(product, step.q);
            } else {
                // Tableau replay: gates are cheap, so apply them one
                // by one; the error draws follow the same sequence as
                // the fused path.
                for (const Pulse &pulse : step.pulses) {
                    state.applyGate(pulse.gate);
                    if (flags.gateErrors && pulse.errorProb > 0.0 &&
                        gate_rng.bernoulli(pulse.errorProb)) {
                        applyRandomPauli1Q(state, step.q, gate_rng);
                    }
                }
            }
            break;
          }
        }
    }
    return packer.key();
}

/**
 * Resolve the backend for an executable: Auto takes the stabilizer
 * fast path exactly when it simulates the job faithfully — every
 * gate Clifford and every enabled noise channel Pauli-expressible.
 * Forcing the stabilizer on an ineligible job is a usage error.
 */
BackendKind
resolveBackend(BackendKind requested, const ExecutionPlan &plan,
               const NoiseFlags &flags)
{
    const bool eligible = plan.clifford && flags.pauliExpressible();
    switch (requested) {
      case BackendKind::Auto:
        return eligible ? BackendKind::Stabilizer : BackendKind::Dense;
      case BackendKind::Stabilizer:
        require(plan.clifford,
                "stabilizer backend requires an all-Clifford "
                "executable");
        require(flags.pauliExpressible(),
                "stabilizer backend requires Pauli-expressible noise "
                "(disable OU dephasing / crosstalk, or opt into "
                "NoiseFlags::twirlCoherent)");
        return requested;
      case BackendKind::Dense:
        return requested;
    }
    panic("unreachable backend kind");
}

/**
 * True when a stabilizer job can be lowered onto the batch frame
 * engine: everything the resolved-stabilizer precondition already
 * guarantees, minus per-shot OU twirl draws (whose phase — and hence
 * Z probability — differs per shot) and minus conditional non-Pauli
 * pulses (whose frame action is data-dependent).  Ineligible jobs
 * keep the per-shot tableau backend.
 */
bool
frameEligible(const ExecutionPlan &plan, const NoiseFlags &flags)
{
    return !flags.ouDephasing && !plan.condNonPauli;
}

/**
 * The structure phase of prepare(): everything device-independent —
 * plan lowering, backend resolution, dense splice tables or the frame
 * engine's reference-tableau walk.  A skeleton is a pure function of
 * (schedule, flags, requested backend, frame branch depth), which is
 * exactly what skeletonFingerprint folds, so instances are safely
 * shared across machines, calibration cycles, and threads.
 */
ProgramSkeleton
buildProgramSkeleton(const ScheduledCircuit &sched,
                     const NoiseFlags &flags, BackendKind backend,
                     bool compile, int frame_branch_depth)
{
    ProgramSkeleton skel = buildPlanSkeleton(sched, flags);
    skel.kind = resolveBackend(backend, skel.plan, flags);
    if (compile) {
        if (skel.kind == BackendKind::Dense) {
            skel.tables = buildShotTables(skel.plan);
            skel.compiled = true;
        } else if (frameEligible(skel.plan, flags)) {
            skel.frame = buildFrameSkeleton(skel.plan, flags,
                                            frame_branch_depth);
            skel.compiled = true;
        }
    }
    return skel;
}

/** Histogram items: (outcome key, shot count). */
using OutcomeItems = std::vector<std::pair<uint64_t, uint64_t>>;

/**
 * Sort @p items by key and fold duplicate keys by exact integer
 * addition.  Every histogram merge — chunks of a run, shard ranges of
 * a job — reduces to this, so the result is identical for any
 * partition of the shots and any arrival order of the parts.
 */
OutcomeItems
foldItems(OutcomeItems items)
{
    std::sort(items.begin(), items.end());
    OutcomeItems folded;
    for (const auto &[key, count] : items) {
        if (!folded.empty() && folded.back().first == key)
            folded.back().second += count;
        else
            folded.emplace_back(key, count);
    }
    return folded;
}

// ------------------------------------------------------------------
// Block runners: one executor per chunk of a run, of the one kind the
// RunnerFactory picks for the job.
// ------------------------------------------------------------------

/**
 * Executes absolute shot ranges of one prepared job into a chunk's
 * histogram.  Every shot's randomness is forked from (run base,
 * absolute shot or block index) alone, so a runner's output never
 * depends on how driveWaves split the job or on which thread runs
 * it.
 */
class BlockRunner
{
  public:
    BlockRunner() = default;
    BlockRunner(const BlockRunner &) = delete;
    BlockRunner &operator=(const BlockRunner &) = delete;
    virtual ~BlockRunner() = default;

    /**
     * Execute shots [lo, hi), counting outcomes into @p hist.  @p lo
     * is a multiple of the factory's grain(); @p hi is too, or the
     * job's end.  A non-null @p token is polled per shot and the
     * runner stops early on a stop request (the frame runner ignores
     * it and runs whole blocks).
     *
     * @return Shots committed: a prefix of the range.
     */
    virtual int64_t run(const Rng &base, int64_t lo, int64_t hi,
                        FlatAccumulator &hist,
                        const CancellationToken *token) = 0;

    /** Fold this runner's engine counters into @p out. */
    virtual void addStats(RunOutcome &) const {}
};

/**
 * Batch Pauli-frame engine: kFrameLanes shots per plane pass, each
 * block's randomness forked from (base, absolute block).  Lanes whose
 * T1 jump fired on a reference-superposed qubit leave the pass and
 * are drained after every block — via compiled branch tails when
 * enabled, else via exact per-shot tableau reruns.  Either way each
 * consumes a dedicated stream keyed by its absolute shot index, so the
 * drain cadence never changes an outcome.  Whole blocks only: the
 * token is ignored (driveWaves polls between blocks).
 */
class FrameRunner final : public BlockRunner
{
  public:
    explicit FrameRunner(const PreparedJob &job)
        : job_(job), prog_(*job.frame), engine_(prog_)
    {
    }

    int64_t
    run(const Rng &base, int64_t lo, int64_t hi, FlatAccumulator &hist,
        const CancellationToken *) override
    {
        for (int64_t first = lo; first < hi; first += kFrameLanes) {
            const auto lanes = static_cast<int>(
                std::min<int64_t>(kFrameLanes, hi - first));
            engine_.runBlock(base, first / kFrameLanes, lanes, hist,
                             deferred_, tails_);
            if (deferred_.empty() && tails_.empty())
                continue;
            if (!scratch_) {
                scratch_ =
                    std::make_unique<StabilizerState>(prog_.numQubits);
                packer_ = std::make_unique<OutcomePacker>(prog_.numClbits);
            }
            if (!deferred_.empty()) {
                stats_.deferredShots +=
                    static_cast<int64_t>(deferred_.size());
                drainDeferredShots(prog_, base, deferred_, *scratch_,
                                   *packer_, hist);
            }
            if (!tails_.empty()) {
                drainTailShots(prog_, base, tails_, *job_.tails,
                               *scratch_, *packer_, hist, stats_);
            }
        }
        return hi - lo;
    }

    void
    addStats(RunOutcome &out) const override
    {
        out.frameStats.merge(stats_);
    }

  private:
    const PreparedJob &job_;
    const FrameProgram &prog_;
    FrameBatchBackend engine_;
    std::unique_ptr<StabilizerState> scratch_;
    std::unique_ptr<OutcomePacker> packer_;
    std::vector<DeferredShot> deferred_;
    std::vector<FrameTailShot> tails_;
    FrameBatchStats stats_;
};

/** Per-shot compiled replay (ShotReplayer). */
class CompiledShotRunner final : public BlockRunner
{
  public:
    explicit CompiledShotRunner(const PreparedJob &job)
        : replayer_(job.plan, *job.program)
    {
    }

    int64_t
    run(const Rng &base, int64_t lo, int64_t hi, FlatAccumulator &hist,
        const CancellationToken *token) override
    {
        return replayer_.runBlock(base, lo, hi - lo, hist, token);
    }

  private:
    ShotReplayer replayer_;
};

/** The interpreted reference: one runShot plan walk per shot on the
 *  job's per-shot backend (state vector or full tableau). */
class InterpretedRunner final : public BlockRunner
{
  public:
    InterpretedRunner(const PreparedJob &job, const Calibration &cal,
                      const NoiseFlags &flags)
        : job_(job), cal_(cal), flags_(flags),
          state_(makeState(job)), packer_(job.plan.maxClbit + 1)
    {
    }

    int64_t
    run(const Rng &base, int64_t lo, int64_t hi, FlatAccumulator &hist,
        const CancellationToken *token) override
    {
        for (int64_t shot = lo; shot < hi; shot++) {
            if (token != nullptr && token->stopRequested())
                return shot - lo;
            const Rng shot_rng =
                base.fork(static_cast<uint64_t>(shot) + 1);
            hist.add(runShot(job_.plan, cal_, flags_, *state_, packer_,
                             shot_rng),
                     1.0);
        }
        return hi - lo;
    }

  private:
    /** The per-shot backend; a dense one lays its state out in the
     *  plan's join order, exactly as the compiled replay does. */
    static std::unique_ptr<SimBackend>
    makeState(const PreparedJob &job)
    {
        const auto n = static_cast<int>(job.plan.active.size());
        if (job.kind == BackendKind::Dense)
            return std::make_unique<DenseBackend>(n, job.plan.svBit);
        return makeBackend(job.kind, n);
    }

    const PreparedJob &job_;
    const Calibration &cal_;
    const NoiseFlags &flags_;
    std::unique_ptr<SimBackend> state_;
    OutcomePacker packer_;
};

/**
 * The one place a run's execution strategy is decided: picks the
 * runner kind for (prepared job, ExecMode) once, reports its block
 * geometry to driveWaves, and builds one runner per chunk slot.
 */
class RunnerFactory
{
  public:
    RunnerFactory(const PreparedJob &job, ExecMode mode,
                  const Calibration &cal, const NoiseFlags &flags)
        : job_(job), cal_(cal), flags_(flags), kind_(chooseKind(job, mode))
    {
    }

    /** Shots per block: what one chunk commits per wave of a
     *  cancellable run, and the shard-range unit. */
    int64_t
    blockShots() const
    {
        return kind_ == Kind::Frame ? kFrameLanes : kShotBlock;
    }

    /** Smallest unit a chunk may start on: a whole block on the frame
     *  path (its randomness is keyed per block), one shot elsewhere —
     *  so dense chunking stays shot-granular and balanced. */
    int64_t
    grain() const
    {
        return kind_ == Kind::Frame ? kFrameLanes : 1;
    }

    std::unique_ptr<BlockRunner>
    make() const
    {
        switch (kind_) {
          case Kind::Frame:
            return std::make_unique<FrameRunner>(job_);
          case Kind::CompiledShot:
            return std::make_unique<CompiledShotRunner>(job_);
          case Kind::Interpreted:
            break;
        }
        return std::make_unique<InterpretedRunner>(job_, cal_, flags_);
    }

  private:
    enum class Kind { Frame, CompiledShot, Interpreted };

    /** Compiled runs take the job's compiled program — the frame
     *  engine for stabilizer jobs, per-shot replay (ShotReplayer) for
     *  dense ones; Interpreted runs, and stabilizer jobs the frame
     *  engine cannot model, walk the plan. */
    static Kind
    chooseKind(const PreparedJob &job, ExecMode mode)
    {
        if (mode == ExecMode::Compiled && job.frame.has_value())
            return Kind::Frame;
        if (mode == ExecMode::Compiled && job.program.has_value())
            return Kind::CompiledShot;
        return Kind::Interpreted;
    }

    const PreparedJob &job_;
    const Calibration &cal_;
    const NoiseFlags &flags_;
    Kind kind_;
};

/**
 * The wave loop behind every shot-execution entry point (runPartial,
 * and so run / runBatch; runShardRange, and so the shard worker).
 * Executes shots [first, last) of a job and returns the committed
 * shots' histogram as folded items.
 *
 * The range splits into min(threads, grains) contiguous chunks — a
 * pure function of the range and the thread count — with one runner
 * per chunk slot, persisting across waves (the pool may hand a slot
 * to a different thread each wave; parallelFor's batch completion
 * orders those accesses).  With a quiet control (no armed token, no
 * progress callback) one wave covers the whole range.  An armed
 * control switches to waves of one block per chunk: the token is
 * polled between waves and progress fires after each with the shots
 * committed since @p first, so the committed work is always a
 * contiguous, deterministic prefix of the range.  Single-chunk waves
 * also hand the token to the runner, which polls it per shot: with
 * one chunk the committed shots are a prefix at *any* shot boundary,
 * so the finest granularity is free.
 *
 * @p out receives shotsDone (relative to @p first), partial, cause,
 * and the runners' engine counters.
 *
 * @pre first < last, and first is a multiple of factory.grain().
 */
OutcomeItems
driveWaves(const RunnerFactory &factory, const Rng &base, int64_t first,
           int64_t last, int threads, const RunControl &control,
           RunOutcome &out)
{
    const int64_t grain = factory.grain();
    const int64_t unit_hi = (last + grain - 1) / grain;
    int64_t unit = first / grain;
    const int chunks = static_cast<int>(
        std::min<int64_t>(resolveThreads(threads), unit_hi - unit));
    const bool limited =
        control.token.armed() || control.progress != nullptr;
    const int64_t wave =
        limited ? chunks * (factory.blockShots() / grain) : unit_hi - unit;
    const CancellationToken *shot_token =
        limited && chunks == 1 && control.token.armed() ? &control.token
                                                        : nullptr;
    const auto shotAt = [&](int64_t u) {
        return std::min(u * grain, last);
    };

    std::vector<std::unique_ptr<BlockRunner>> runners(
        static_cast<size_t>(chunks));
    std::vector<FlatAccumulator> hists(static_cast<size_t>(chunks));
    int64_t done = first;
    while (unit < unit_hi) {
        if ((out.cause = control.token.cause()) != StopCause::None)
            break;
        const int64_t hi = std::min(unit + wave, unit_hi);
        int64_t wave_done = shotAt(hi) - shotAt(unit);
        parallelFor(unit, hi, chunks,
                    [&](int64_t lo2, int64_t hi2, int chunk) {
            std::unique_ptr<BlockRunner> &runner =
                runners[static_cast<size_t>(chunk)];
            if (!runner)
                runner = factory.make();
            const int64_t ran = runner->run(
                base, shotAt(lo2), shotAt(hi2),
                hists[static_cast<size_t>(chunk)], shot_token);
            if (shot_token != nullptr)
                wave_done = ran; // chunks == 1: sole writer
        });
        done += wave_done;
        if (control.progress)
            control.progress(done - first);
        // A per-shot poll may stop inside the wave; the cause is
        // re-read from the token below.
        if (done < shotAt(hi))
            break;
        unit = hi;
    }
    out.shotsDone = done - first;
    out.partial = done < last;
    if (out.partial && out.cause == StopCause::None)
        out.cause = control.token.cause();

    std::vector<std::pair<uint64_t, double>> raw;
    for (const FlatAccumulator &hist : hists)
        hist.appendItemsTo(raw);
    OutcomeItems items;
    items.reserve(raw.size());
    for (const auto &[key, count] : raw)
        items.emplace_back(key, static_cast<uint64_t>(std::llround(count)));
    for (const std::unique_ptr<BlockRunner> &runner : runners) {
        if (runner)
            runner->addStats(out);
    }
    return foldItems(std::move(items));
}

} // namespace

BackendKind
NoisyMachine::chooseBackend(const ScheduledCircuit &sched) const
{
    const ExecutionPlan plan = buildPlan(sched, cal_, flags_);
    return resolveBackend(BackendKind::Auto, plan, flags_);
}

PreparedCircuit
NoisyMachine::prepareImpl(const ScheduledCircuit &sched,
                          BackendKind backend, bool compile) const
{
    // The one engine knob left, resolved here at the edge and carried
    // by value into the structure phase and its cache key: how many
    // nested superposed-T1 jumps a frame lane may take in-frame.
    const auto branch_depth = static_cast<int>(
        envInt("ADAPT_FRAME_BRANCH_DEPTH", 8, 0, 64));

    // Structure phase: cached when a cache is installed and the job
    // is compiled (interpreted prepares skip compilation and are too
    // cheap to be worth a cache slot).  Cold and cached prepares run
    // the identical build + bind code — only the skeleton's object
    // identity differs — so the executed programs are bit-identical.
    std::shared_ptr<const ProgramSkeleton> skel;
    if (cache_ != nullptr && compile) {
        const ProgramFingerprint fp =
            skeletonFingerprint(sched, flags_, backend, branch_depth);
        skel = cache_->findOrBuild(fp, [&] {
            return buildProgramSkeleton(sched, flags_, backend,
                                        compile, branch_depth);
        });
    } else {
        skel = std::make_shared<const ProgramSkeleton>(
            buildProgramSkeleton(sched, flags_, backend, compile,
                                 branch_depth));
    }

    // Bind phase: stamp this machine's calibration constants.
    auto job = std::make_shared<PreparedJob>();
    job->plan = bindPlan(*skel, cal_, flags_);
    job->kind = skel->kind;
    if (skel->tables) {
        job->program =
            bindShotProgram(job->plan, *skel->tables, cal_, flags_);
    } else if (skel->frame) {
        job->frame =
            bindFrameProgram(job->plan, *skel->frame, cal_, flags_);
        if (job->frame->branchTails)
            job->tails = std::make_shared<FrameTailCache>();
    }
    PreparedCircuit prepared;
    prepared.impl_ = std::move(job);
    return prepared;
}

PreparedCircuit
NoisyMachine::prepare(const ScheduledCircuit &sched,
                      BackendKind backend) const
{
    return prepareImpl(sched, backend, /*compile=*/true);
}

Distribution
NoisyMachine::run(const PreparedCircuit &prepared, int shots,
                  uint64_t run_seed, int threads, ExecMode mode) const
{
    return runPartial(prepared, shots, run_seed, threads, RunControl{},
                      mode)
        .dist;
}

RunOutcome
NoisyMachine::runPartial(const PreparedCircuit &prepared, int shots,
                         uint64_t run_seed, int threads,
                         const RunControl &control, ExecMode mode) const
{
    require(shots > 0, "NoisyMachine::run requires at least one shot");
    require(prepared.valid(),
            "NoisyMachine::run on an empty PreparedCircuit");
    const RunnerFactory factory(*prepared.impl_, mode, cal_, flags_);
    RunOutcome out;
    OutcomeItems items =
        driveWaves(factory, Rng(run_seed ^ 0xadab7dd), 0, shots,
                   threads, control, out);
    out.dist = mergeShardItems(std::move(items));
    return out;
}

int64_t
NoisyMachine::shardBlockShots(const PreparedCircuit &prepared,
                              ExecMode mode) const
{
    require(prepared.valid(),
            "shardBlockShots on an empty PreparedCircuit");
    return RunnerFactory(*prepared.impl_, mode, cal_, flags_)
        .blockShots();
}

int64_t
NoisyMachine::shardBlockCount(const PreparedCircuit &prepared,
                              int shots, ExecMode mode) const
{
    require(shots > 0, "shardBlockCount requires at least one shot");
    const int64_t block = shardBlockShots(prepared, mode);
    return (static_cast<int64_t>(shots) + block - 1) / block;
}

std::vector<std::pair<uint64_t, uint64_t>>
NoisyMachine::runShardRange(
    const PreparedCircuit &prepared, int shots, int64_t block_lo,
    int64_t block_hi, uint64_t run_seed, ExecMode mode,
    const std::function<void(int64_t)> &progress) const
{
    require(shots > 0, "runShardRange requires at least one shot");
    require(prepared.valid(),
            "runShardRange on an empty PreparedCircuit");
    const int64_t blocks = shardBlockCount(prepared, shots, mode);
    require(block_lo >= 0 && block_lo <= block_hi && block_hi <= blocks,
            "runShardRange block range out of bounds");
    if (block_lo == block_hi)
        return {};
    // Serial by design — the parallelism is the process fan-out — and
    // the same runners and per-block randomness as runPartial, so any
    // partition of the blocks reproduces run() bit for bit.
    const RunnerFactory factory(*prepared.impl_, mode, cal_, flags_);
    const int64_t block = factory.blockShots();
    RunControl control;
    control.progress = progress;
    RunOutcome out;
    return driveWaves(
        factory, Rng(run_seed ^ 0xadab7dd), block_lo * block,
        std::min<int64_t>(block_hi * block, shots), /*threads=*/1,
        control, out);
}

Distribution
mergeShardItems(std::vector<std::pair<uint64_t, uint64_t>> items)
{
    Distribution dist;
    for (const auto &[key, count] : foldItems(std::move(items)))
        dist.addSamples(key, count);
    return dist;
}

Distribution
NoisyMachine::run(const ScheduledCircuit &sched, int shots,
                  uint64_t run_seed, int threads,
                  BackendKind backend, ExecMode mode) const
{
    return run(prepareImpl(sched, backend,
                           /*compile=*/mode == ExecMode::Compiled),
               shots, run_seed, threads, mode);
}

std::vector<Distribution>
NoisyMachine::runBatch(std::span<const ScheduledCircuit> jobs, int shots,
                       std::span<const uint64_t> seeds, int threads,
                       BackendKind backend, ExecMode mode) const
{
    require(jobs.size() == seeds.size(),
            "runBatch requires one seed per job");
    require(jobs.empty() || shots > 0,
            "runBatch requires at least one shot");
    std::vector<Distribution> outputs(jobs.size());

    // Jobs are independent, so they fan out across the pool; each
    // output lands at its job's index.  Preparation (plan lowering +
    // shot-program compilation) happens inside the pool tasks, so a
    // batch also parallelizes the per-variant compile.  Each run()
    // fans its shot chunks out on the same pool and is bit-identical
    // across thread counts, so the batch reproduces jobs.size()
    // serial run() calls exactly for any thread count.
    parallelFor(0, static_cast<int64_t>(jobs.size()), threads,
                [&](int64_t lo, int64_t hi, int) {
        for (int64_t i = lo; i < hi; i++) {
            outputs[static_cast<size_t>(i)] =
                run(jobs[static_cast<size_t>(i)], shots,
                    seeds[static_cast<size_t>(i)], /*threads=*/0,
                    backend, mode);
        }
    });
    return outputs;
}

std::vector<Distribution>
NoisyMachine::runBatch(std::span<const PreparedCircuit> jobs, int shots,
                       std::span<const uint64_t> seeds, int threads,
                       ExecMode mode) const
{
    std::vector<RunOutcome> outcomes = runBatchPartial(
        jobs, shots, seeds, threads, RunControl{}, mode);
    std::vector<Distribution> outputs;
    outputs.reserve(outcomes.size());
    for (RunOutcome &out : outcomes)
        outputs.push_back(std::move(out.dist));
    return outputs;
}

std::vector<RunOutcome>
NoisyMachine::runBatchPartial(std::span<const PreparedCircuit> jobs,
                              int shots,
                              std::span<const uint64_t> seeds,
                              int threads, const RunControl &control,
                              ExecMode mode) const
{
    require(jobs.size() == seeds.size(),
            "runBatch requires one seed per job");
    require(jobs.empty() || shots > 0,
            "runBatch requires at least one shot");
    std::vector<RunOutcome> outputs(jobs.size());

    // Same fan-out as runBatch (jobs across the pool, each job's shot
    // chunks on it too), with the stop token threaded through:
    // each job polls it once before starting (a stopped token skips
    // the job — shotsDone 0, partial, cause recorded) and then runs
    // cancellably under it.  Jobs draw only from their own seeds, so
    // every job that completed is bit-identical to a solo run() no
    // matter when a sibling was skipped or truncated.
    RunControl job_control;
    job_control.token = control.token;
    parallelFor(0, static_cast<int64_t>(jobs.size()), threads,
                [&](int64_t lo, int64_t hi, int) {
        for (int64_t i = lo; i < hi; i++) {
            RunOutcome &out = outputs[static_cast<size_t>(i)];
            const StopCause cause = control.token.cause();
            if (cause != StopCause::None) {
                out.partial = true;
                out.cause = cause;
                continue;
            }
            out = runPartial(jobs[static_cast<size_t>(i)], shots,
                             seeds[static_cast<size_t>(i)],
                             /*threads=*/0, job_control, mode);
        }
    });
    return outputs;
}

} // namespace adapt
