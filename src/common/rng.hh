/**
 * @file
 * Deterministic pseudo-random number generation for reproducible
 * experiments.
 *
 * All stochastic components of the library (noise trajectories,
 * calibration snapshots, workload generators) draw from an Rng instance
 * that is explicitly seeded, so every experiment in the paper
 * reproduction is bit-for-bit repeatable.
 */

#ifndef ADAPT_COMMON_RNG_HH
#define ADAPT_COMMON_RNG_HH

#include <cstdint>

namespace adapt
{

/**
 * xoshiro256** PRNG with splitmix64 seeding.
 *
 * Small, fast, and good enough statistically for Monte-Carlo noise
 * trajectories; crucially it is fully deterministic across platforms,
 * unlike std::mt19937 paired with libstdc++ distribution objects.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit draw. */
    uint64_t next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1): 53 random mantissa bits. */
    double uniform() { return (next() >> 11) * 0x1.0p-53; }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0 */
    uint64_t uniformInt(uint64_t n);

    /** Standard normal draw (Box-Muller, cached pair). */
    double normal();

    /** Normal draw with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Bernoulli draw with success probability @p p. */
    bool bernoulli(double p) { return uniform() < p; }

    /**
     * Derive an independent child stream.
     *
     * Streams derived with distinct salts are statistically
     * independent; used to give each shot / qubit / calibration cycle
     * its own reproducible stream.
     */
    Rng fork(uint64_t salt) const;

  private:
    static uint64_t rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4];
    double cachedNormal_;
    bool hasCachedNormal_;
};

} // namespace adapt

#endif // ADAPT_COMMON_RNG_HH
