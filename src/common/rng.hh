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
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0 */
    uint64_t uniformInt(uint64_t n);

    /** Standard normal draw (Box-Muller, cached pair). */
    double normal();

    /** Normal draw with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Bernoulli draw with success probability @p p. */
    bool bernoulli(double p);

    /**
     * Derive an independent child stream.
     *
     * Streams derived with distinct salts are statistically
     * independent; used to give each shot / qubit / calibration cycle
     * its own reproducible stream.
     */
    Rng fork(uint64_t salt) const;

  private:
    uint64_t state_[4];
    double cachedNormal_;
    bool hasCachedNormal_;
};

} // namespace adapt

#endif // ADAPT_COMMON_RNG_HH
