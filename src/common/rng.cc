#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/types.hh"

namespace adapt
{

namespace
{

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed) : cachedNormal_(0.0), hasCachedNormal_(false)
{
    uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
}

uint64_t
Rng::next()
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

double
Rng::uniform()
{
    // 53 random mantissa bits -> uniform in [0, 1).
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::uniformInt(uint64_t n)
{
    require(n > 0, "Rng::uniformInt requires n > 0");
    // Rejection sampling to avoid modulo bias.
    const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    uint64_t draw;
    do {
        draw = next();
    } while (draw >= limit);
    return draw % n;
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    cachedNormal_ = radius * std::sin(2.0 * kPi * u2);
    hasCachedNormal_ = true;
    return radius * std::cos(2.0 * kPi * u2);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

Rng
Rng::fork(uint64_t salt) const
{
    // Mix the current state with the salt through splitmix64 so child
    // streams do not overlap the parent stream.
    uint64_t mix = state_[0] ^ rotl(state_[3], 13) ^ (salt * 0xd1342543de82ef95ULL);
    return Rng(splitmix64(mix));
}

} // namespace adapt
