/**
 * @file
 * Process-wide cache of compiled program skeletons.
 *
 * Splitting compilation into a structure phase (ProgramSkeleton) and
 * a bind phase (calibration constants) makes the expensive half —
 * plan lowering, splice-table matrix products, the frame engine's
 * unbound op stream with the reference classes of its one
 * reference-tableau walk — a pure function of (scheduled circuit,
 * noise flags, backend request).  Drift sweeps and repeated
 * JobServer submissions re-run the same structures
 * against fresh calibration snapshots, so the skeletons are cached
 * under a fingerprint of those inputs and only the cheap bind phase
 * runs per (device, cycle).
 *
 * Most structures never recur, though: each DD-mask variant of an
 * adaptSearch neighbourhood is a distinct schedule compiled and run
 * once (one Fig. 13 suite unit builds 315 distinct structures in 397
 * prepares, 269 of them exactly once).  The cache therefore holds a
 * first sighting only in a small admission window and retains a
 * skeleton in its LRU once the structure recurs (see ProgramCache).
 *
 * Knobs (strict parsers, warn-once on malformed values):
 *   ADAPT_PROGRAM_CACHE      on/off, default on — "off" makes
 *                            ProgramCache::processShared() return
 *                            nullptr so every prepare compiles cold.
 *   ADAPT_PROGRAM_CACHE_CAP  LRU capacity in skeletons, default 64,
 *                            clamped to [1, 1048576]; it also sizes
 *                            the admission history (capacity
 *                            fingerprints) and window (capacity / 8
 *                            skeletons, at least one).
 */

#ifndef ADAPT_NOISE_PROGRAM_CACHE_HH
#define ADAPT_NOISE_PROGRAM_CACHE_HH

#include <cstdint>
#include <deque>
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
 * indices), the noise-flag set and the requested backend.
 * Calibration constants are not among them: the bind stamps them, so
 * a drifted calibration re-binds the cached skeleton.
 */
ProgramFingerprint skeletonFingerprint(const ScheduledCircuit &sched,
                                       const NoiseFlags &flags,
                                       BackendKind requested);

/**
 * Thread-safe LRU map from fingerprint to immutable skeleton, behind
 * a recurrence-based admission rule (the window and "doorkeeper" of
 * W-TinyLFU, Einziger, Friedman & Manes, ACM TOS 2017).
 *
 * Skeletons are shared_ptr<const>: a cached entry can be evicted
 * while a binder still holds it.  Misses compile outside the lock.
 * A skeleton enters the LRU only once its structure recurs:
 *  - a first sighting (fingerprint not in the history) counts as
 *    declined.  Its fingerprint joins the history, a FIFO of the last
 *    capacity() distinct fingerprints that missed, and its skeleton
 *    the window, which keeps the skeletons of the newest window()
 *    of them;
 *  - a lookup that finds the skeleton in the window is a hit and
 *    promotes it to the LRU, so a structure prepared again soon
 *    after its first build (the next calibration cycle's jobs) is
 *    built once;
 *  - a build whose fingerprint is in the history, its skeleton gone
 *    from the window, is retained in the LRU.
 * A one-shot structure (most DD-mask variants) thus holds a window
 * slot at most, never an LRU slot.  A fingerprint stays in the
 * history once admitted.  A racing double-compile of one
 * fingerprint is benign: an incumbent that appeared during the build
 * wins (a windowed one is promoted), and the loser binds from it.
 *
 * A skeleton is a pure function of its fingerprint, so admission and
 * eviction change cost, never results.
 */
class ProgramCache
{
  public:
    explicit ProgramCache(size_t capacity);

    /** Cached skeleton for @p fp, or build via @p build (retained
     *  when @p fp recurs). */
    std::shared_ptr<const ProgramSkeleton> findOrBuild(
        const ProgramFingerprint &fp,
        const std::function<ProgramSkeleton()> &build);

    struct Stats
    {
        uint64_t hits = 0;     //!< served without a build
        uint64_t misses = 0;   //!< builds
        uint64_t declined = 0; //!< first sightings, kept out of the LRU
        uint64_t evictions = 0;
        size_t entries = 0;    //!< skeletons in the LRU
    };
    Stats stats() const;

    size_t capacity() const { return capacity_; }

    /** First sightings whose skeletons the window keeps. */
    size_t window() const { return window_; }

    /** A cold reset: drop every skeleton, in the LRU and the window,
     *  and the admission history.  The counters are kept. */
    void clear();

    /**
     * The process-wide instance every NoisyMachine picks up by
     * default, sized by ADAPT_PROGRAM_CACHE_CAP; nullptr when
     * ADAPT_PROGRAM_CACHE=off.  Env is read once, at first use.
     */
    static ProgramCache *processShared();

  private:
    using SkeletonPtr = std::shared_ptr<const ProgramSkeleton>;

    struct Entry
    {
        SkeletonPtr skeleton;
        uint64_t lastUse = 0;
    };

    /** Insert into the LRU, evicting the least recently used at
     *  capacity.  Caller holds mu_. */
    void admit(const ProgramFingerprint &fp, SkeletonPtr skeleton);

    /** Move @p fp's skeleton from the window to the LRU and return
     *  it; nullptr when the window does not hold it.  Caller holds
     *  mu_. */
    SkeletonPtr promote(const ProgramFingerprint &fp);

    /** Record a first sighting in the history and the window,
     *  dropping what falls past either.  Caller holds mu_. */
    void remember(const ProgramFingerprint &fp, SkeletonPtr skeleton);

    const size_t capacity_;
    const size_t window_;
    mutable std::mutex mu_;
    std::map<ProgramFingerprint, Entry> entries_;
    /** The history; a skeleton is set while it is in the window. */
    std::map<ProgramFingerprint, SkeletonPtr> seen_;
    std::deque<ProgramFingerprint> seenOrder_; //!< oldest first
    uint64_t tick_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t declined_ = 0;
    uint64_t evictions_ = 0;
};

} // namespace adapt

#endif // ADAPT_NOISE_PROGRAM_CACHE_HH
