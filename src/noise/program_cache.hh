/**
 * @file
 * Process-wide cache of compiled program skeletons.
 *
 * Splitting compilation into a structure phase (ProgramSkeleton) and
 * a bind phase (calibration constants) makes the expensive half —
 * plan lowering, splice-table matrix products, the frame engine's
 * reference-tableau walk — a pure function of (scheduled circuit,
 * noise flags, backend request, frame branch depth).  Drift sweeps,
 * adaptSearch mask neighbourhoods, and repeated JobServer submissions
 * re-run the same structures against fresh calibration snapshots, so
 * the skeletons are cached under a fingerprint of those inputs and
 * only the cheap bind phase runs per (device, cycle).
 *
 * Knobs (strict parsers, warn-once on malformed values):
 *   ADAPT_PROGRAM_CACHE      on/off, default on — "off" makes
 *                            ProgramCache::processShared() return
 *                            nullptr so every prepare compiles cold.
 *   ADAPT_PROGRAM_CACHE_CAP  LRU capacity in skeletons, default 64,
 *                            clamped to [1, 1048576].
 */

#ifndef ADAPT_NOISE_PROGRAM_CACHE_HH
#define ADAPT_NOISE_PROGRAM_CACHE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "noise/noise_model.hh"
#include "sim/backend.hh"
#include "transpile/schedule.hh"

namespace adapt
{

struct ProgramSkeleton;

/** 128-bit structural fingerprint (collision odds are negligible at
 *  cache scale; the two lanes are mixed with independent streams). */
struct ProgramFingerprint
{
    uint64_t hi = 0;
    uint64_t lo = 0;

    bool operator<(const ProgramFingerprint &o) const
    {
        return hi != o.hi ? hi < o.hi : lo < o.lo;
    }
    bool operator==(const ProgramFingerprint &o) const
    {
        return hi == o.hi && lo == o.lo;
    }
};

/**
 * Fingerprint of everything the structure phase reads: the scheduled
 * op stream (types, operands, parameter/time bit patterns, link
 * indices), the noise-flag set, the requested backend, and the frame
 * engine's branch-tail depth — folded by value, so equal depths share
 * a key however they were spelled and a changed depth never serves a
 * stale skeleton.
 */
ProgramFingerprint skeletonFingerprint(const ScheduledCircuit &sched,
                                       const NoiseFlags &flags,
                                       BackendKind requested,
                                       int frame_branch_depth);

/**
 * Thread-safe LRU map from fingerprint to immutable skeleton.
 *
 * Skeletons are shared_ptr<const>: a cached entry can be evicted
 * while a binder still holds it.  Misses compile outside the lock —
 * a racing double-compile of the same fingerprint is benign (the
 * first insert wins, the loser binds from its own copy).
 */
class ProgramCache
{
  public:
    explicit ProgramCache(size_t capacity);

    /** Cached skeleton for @p fp, or build-and-insert via @p build. */
    std::shared_ptr<const ProgramSkeleton> findOrBuild(
        const ProgramFingerprint &fp,
        const std::function<ProgramSkeleton()> &build);

    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
        size_t entries = 0;
    };
    Stats stats() const;

    size_t capacity() const { return capacity_; }

    /** Drop every entry (stats counters are kept). */
    void clear();

    /**
     * The process-wide instance every NoisyMachine picks up by
     * default, sized by ADAPT_PROGRAM_CACHE_CAP; nullptr when
     * ADAPT_PROGRAM_CACHE=off.  Env is read once, at first use.
     */
    static ProgramCache *processShared();

  private:
    struct Entry
    {
        std::shared_ptr<const ProgramSkeleton> skeleton;
        uint64_t lastUse = 0;
    };

    const size_t capacity_;
    mutable std::mutex mu_;
    std::map<ProgramFingerprint, Entry> entries_;
    uint64_t tick_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
};

} // namespace adapt

#endif // ADAPT_NOISE_PROGRAM_CACHE_HH
