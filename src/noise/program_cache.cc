#include "noise/program_cache.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/env.hh"
#include "noise/compiled.hh"

namespace adapt
{

namespace
{

/** One lane of the fingerprint: a splitmix64-style stream folding
 *  64-bit words.  Two lanes with independent seeds and odd
 *  multipliers give 128 effectively independent bits. */
struct FoldLane
{
    uint64_t state;
    uint64_t mult;

    void fold(uint64_t word)
    {
        state += word + 0x9e3779b97f4a7c15ull;
        uint64_t z = state;
        z = (z ^ (z >> 30)) * mult;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        state = z ^ (z >> 31);
    }
};

struct Folder
{
    FoldLane a{0x243f6a8885a308d3ull, 0xbf58476d1ce4e5b9ull};
    FoldLane b{0x13198a2e03707344ull, 0xff51afd7ed558ccdull};

    void word(uint64_t w)
    {
        a.fold(w);
        b.fold(w ^ 0xa5a5a5a5a5a5a5a5ull);
    }

    void real(double d)
    {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(d), "double is 64-bit");
        std::memcpy(&bits, &d, sizeof(bits));
        word(bits);
    }
};

} // namespace

ProgramFingerprint
skeletonFingerprint(const ScheduledCircuit &sched,
                    const NoiseFlags &flags, BackendKind requested)
{
    Folder f;

    f.word(static_cast<uint64_t>(sched.numQubits()));
    f.word(static_cast<uint64_t>(sched.numClbits()));
    f.word(sched.ops().size());
    for (const TimedOp &op : sched.ops()) {
        const Gate &gate = op.gate;
        f.word(static_cast<uint64_t>(gate.type));
        f.word(gate.qubits.size());
        for (QubitId q : gate.qubits)
            f.word(static_cast<uint64_t>(q));
        f.word(gate.params.size());
        for (double p : gate.params)
            f.real(p);
        f.word(static_cast<uint64_t>(
            static_cast<int64_t>(gate.clbit)));
        f.word(static_cast<uint64_t>(
            static_cast<int64_t>(gate.condBit)));
        f.real(op.start);
        f.real(op.end);
        f.word(static_cast<uint64_t>(
            static_cast<int64_t>(op.linkIndex)));
        f.word(op.ddPulse ? 1 : 0);
    }

    f.word((flags.gateErrors ? 1u : 0u) |
           (flags.measurementErrors ? 2u : 0u) |
           (flags.t1Damping ? 4u : 0u) |
           (flags.whiteDephasing ? 8u : 0u) |
           (flags.ouDephasing ? 16u : 0u) |
           (flags.crosstalk ? 32u : 0u) |
           (flags.twirlCoherent ? 64u : 0u));
    f.word(static_cast<uint64_t>(requested));

    return {f.a.state, f.b.state};
}

ProgramCache::ProgramCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      window_(std::max<size_t>(1, capacity_ / 8))
{
}

std::shared_ptr<const ProgramSkeleton>
ProgramCache::findOrBuild(
    const ProgramFingerprint &fp,
    const std::function<ProgramSkeleton()> &build)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(fp);
        if (it != entries_.end()) {
            hits_++;
            it->second.lastUse = ++tick_;
            return it->second.skeleton;
        }
        if (SkeletonPtr windowed = promote(fp)) {
            hits_++;
            return windowed;
        }
        misses_++;
    }

    // Compile outside the lock: skeleton builds can run milliseconds
    // (reference-tableau walks), and a racing duplicate build of the
    // same fingerprint is deterministic, hence benign.
    auto built = std::make_shared<const ProgramSkeleton>(build());

    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(fp);
    if (it != entries_.end()) {
        // Lost the race: keep the incumbent so concurrent binders of
        // one fingerprint share a single skeleton.
        it->second.lastUse = ++tick_;
        return it->second.skeleton;
    }
    // Lost the race to a first sighting: the structure recurred.
    if (SkeletonPtr windowed = promote(fp))
        return windowed;
    // Recurred after its skeleton left the window: retain this build.
    if (seen_.count(fp) != 0) {
        admit(fp, built);
        return built;
    }
    // A first sighting stays out of the LRU, so structures built once
    // (most decoy variants) cost no LRU slot.
    declined_++;
    remember(fp, built);
    return built;
}

void
ProgramCache::admit(const ProgramFingerprint &fp, SkeletonPtr skeleton)
{
    while (entries_.size() >= capacity_) {
        auto victim = entries_.begin();
        for (auto cand = entries_.begin(); cand != entries_.end();
             ++cand) {
            if (cand->second.lastUse < victim->second.lastUse)
                victim = cand;
        }
        entries_.erase(victim);
        evictions_++;
    }
    entries_.emplace(fp, Entry{std::move(skeleton), ++tick_});
}

ProgramCache::SkeletonPtr
ProgramCache::promote(const ProgramFingerprint &fp)
{
    auto it = seen_.find(fp);
    if (it == seen_.end() || !it->second)
        return nullptr;
    SkeletonPtr skeleton = std::move(it->second); // leaves it null
    admit(fp, skeleton);
    return skeleton;
}

void
ProgramCache::remember(const ProgramFingerprint &fp, SkeletonPtr skeleton)
{
    seen_.emplace(fp, std::move(skeleton));
    seenOrder_.push_back(fp);
    // The window is the newest window_ sightings: the one just past
    // it lets its skeleton go (its fingerprint stays remembered).
    if (seenOrder_.size() > window_)
        seen_.find(seenOrder_[seenOrder_.size() - 1 - window_])
            ->second = nullptr;
    if (seenOrder_.size() > capacity_) {
        seen_.erase(seenOrder_.front());
        seenOrder_.pop_front();
    }
}

ProgramCache::Stats
ProgramCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return {hits_, misses_, declined_, evictions_, entries_.size()};
}

void
ProgramCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    seen_.clear();
    seenOrder_.clear();
}

ProgramCache *
ProgramCache::processShared()
{
    // Env is sampled once: the shared cache's existence and size are
    // process lifetime decisions (tests that need isolation install
    // their own instance via NoisyMachine::setProgramCache).
    static ProgramCache *shared = []() -> ProgramCache * {
        if (!envFlag("ADAPT_PROGRAM_CACHE", true))
            return nullptr;
        const auto cap = static_cast<size_t>(
            envInt("ADAPT_PROGRAM_CACHE_CAP", 64, 1, 1 << 20));
        return new ProgramCache(cap);
    }();
    return shared;
}

} // namespace adapt
