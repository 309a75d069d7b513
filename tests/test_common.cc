/**
 * @file
 * Unit tests for the common substrate: RNG, 2x2 matrix algebra, and
 * the statistics used by the reliability metrics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <new>
#include <set>
#include <string>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/matrix2.hh"
#include "common/rng.hh"
#include "common/stats.hh"

using namespace adapt;

// ------------------------------------------------- allocation counting

namespace
{

/** While set on a thread, every global operator new it calls is
 *  counted in allocations. */
thread_local bool countingAllocations = false;
long allocations = 0;

} // namespace

void *
operator new(std::size_t size)
{
    if (countingAllocations)
        allocations++;
    if (void *p = std::malloc(size != 0 ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; i++)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; i++) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(8);
    for (int i = 0; i < 1000; i++) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(9);
    for (int i = 0; i < 1000; i++)
        EXPECT_LT(rng.uniformInt(17), 17u);
}

TEST(Rng, UniformIntCoversAllResidues)
{
    Rng rng(10);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 4000; i++)
        seen[rng.uniformInt(8)]++;
    for (int count : seen)
        EXPECT_GT(count, 300); // expect ~500 each
}

TEST(Rng, UniformIntRejectsZero)
{
    Rng rng(10);
    EXPECT_THROW(rng.uniformInt(0), UsageError);
}

TEST(Rng, NormalMomentsAreSane)
{
    Rng rng(11);
    double sum = 0.0, sum_sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; i++) {
        const double x = rng.normal();
        sum += x;
        sum_sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(12);
    int hits = 0;
    for (int i = 0; i < 10000; i++)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, ForkedStreamsAreIndependentAndDeterministic)
{
    Rng parent(13);
    Rng child1 = parent.fork(1);
    Rng child2 = parent.fork(2);
    Rng child1_again = Rng(13).fork(1);
    EXPECT_EQ(child1.next(), child1_again.next());
    EXPECT_NE(child1.next(), child2.next());
}

// ------------------------------------------------------------ Matrix2

TEST(Matrix2, IdentityProperties)
{
    const Matrix2 id = Matrix2::identity();
    EXPECT_TRUE(id.isUnitary());
    EXPECT_NEAR(std::abs(id.trace()), 2.0, 1e-12);
    EXPECT_NEAR(std::abs(id.det() - 1.0), 0.0, 1e-12);
}

TEST(Matrix2, MultiplicationMatchesHandComputation)
{
    const Matrix2 a(1, 2, 3, 4);
    const Matrix2 b(5, 6, 7, 8);
    const Matrix2 c = a * b;
    EXPECT_EQ(c(0, 0), Complex(19, 0));
    EXPECT_EQ(c(0, 1), Complex(22, 0));
    EXPECT_EQ(c(1, 0), Complex(43, 0));
    EXPECT_EQ(c(1, 1), Complex(50, 0));
}

TEST(Matrix2, DaggerIsConjugateTranspose)
{
    const Matrix2 m(Complex(1, 2), Complex(3, -1), Complex(0, 5),
                    Complex(2, 2));
    const Matrix2 d = m.dagger();
    EXPECT_EQ(d(0, 1), Complex(0, -5));
    EXPECT_EQ(d(1, 0), Complex(3, 1));
}

TEST(Matrix2, OperatorNormOfScaledIdentity)
{
    const Matrix2 m = Matrix2::identity() * Complex(3.0, 0.0);
    EXPECT_NEAR(m.operatorNorm(), 3.0, 1e-9);
}

TEST(Matrix2, OperatorNormOfUnitaryIsOne)
{
    // Hadamard.
    const double s = 1.0 / std::sqrt(2.0);
    const Matrix2 h = Matrix2(1, 1, 1, -1) * s;
    EXPECT_NEAR(h.operatorNorm(), 1.0, 1e-9);
}

TEST(Matrix2, EqualsUpToPhaseDetectsGlobalPhase)
{
    const double s = 1.0 / std::sqrt(2.0);
    const Matrix2 h = Matrix2(1, 1, 1, -1) * s;
    const Matrix2 h_phased = h * std::exp(kImag * 0.7);
    EXPECT_TRUE(h.equalsUpToPhase(h_phased));
    EXPECT_FALSE(h.equalsUpToPhase(Matrix2::identity()));
}

TEST(Matrix2, EigenphasesOfPauliZ)
{
    const Matrix2 z(1, 0, 0, -1);
    const auto phases = z.eigenphases();
    const double lo = std::min(phases[0], phases[1]);
    const double hi = std::max(phases[0], phases[1]);
    EXPECT_NEAR(lo, 0.0, 1e-9);
    EXPECT_NEAR(std::abs(hi), kPi, 1e-9);
}

TEST(UnitaryDistance, ZeroForIdenticalUpToPhase)
{
    const double s = 1.0 / std::sqrt(2.0);
    const Matrix2 h = Matrix2(1, 1, 1, -1) * s;
    EXPECT_NEAR(unitaryDistance(h, h * std::exp(kImag * 1.3)), 0.0,
                1e-9);
}

TEST(UnitaryDistance, SymmetricAndPositive)
{
    const Matrix2 z(1, 0, 0, -1);
    const Matrix2 t(1, 0, 0, std::exp(kImag * (kPi / 4.0)));
    const double d1 = unitaryDistance(z, t);
    const double d2 = unitaryDistance(t, z);
    EXPECT_GT(d1, 0.0);
    EXPECT_NEAR(d1, d2, 1e-9);
}

TEST(UnitaryDistance, TGateIsCloserToSThanToX)
{
    const Matrix2 t(1, 0, 0, std::exp(kImag * (kPi / 4.0)));
    const Matrix2 s_gate(1, 0, 0, kImag);
    const Matrix2 id = Matrix2::identity();
    const Matrix2 x(0, 1, 1, 0);
    // T is pi/8 away from both I and S in rotation angle, but much
    // further from X.
    EXPECT_LT(unitaryDistance(t, s_gate), unitaryDistance(t, x));
    EXPECT_LT(unitaryDistance(t, id), unitaryDistance(t, x));
}

/** Parametrized: distance from RZ(theta) to identity grows with
 *  |theta| on [0, pi]. */
class RzDistanceTest : public ::testing::TestWithParam<double>
{
};

TEST_P(RzDistanceTest, MonotoneInAngle)
{
    const double theta = GetParam();
    auto rz = [](double a) {
        return Matrix2(std::exp(-kImag * (a / 2.0)), 0, 0,
                       std::exp(kImag * (a / 2.0)));
    };
    const double d = unitaryDistance(rz(theta), Matrix2::identity());
    const double d_next =
        unitaryDistance(rz(theta + 0.2), Matrix2::identity());
    EXPECT_GE(d_next + 1e-9, d);
    // Known closed form: 2 |sin(theta / 4)|.
    EXPECT_NEAR(d, 2.0 * std::abs(std::sin(theta / 4.0)), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Angles, RzDistanceTest,
                         ::testing::Values(0.0, 0.3, 0.7, 1.1, 1.9,
                                           2.5, 2.9));

// -------------------------------------------------------------- Stats

TEST(Distribution, CountsNormalize)
{
    Distribution d;
    d.addSamples(0, 3);
    d.addSample(1);
    EXPECT_EQ(d.totalSamples(), 4u);
    EXPECT_NEAR(d.probability(0), 0.75, 1e-12);
    EXPECT_NEAR(d.probability(1), 0.25, 1e-12);
    EXPECT_NEAR(d.probability(2), 0.0, 1e-12);
}

TEST(Distribution, ExactProbabilities)
{
    Distribution d;
    d.setProbability(5, 0.5);
    d.setProbability(9, 0.5);
    EXPECT_NEAR(d.probability(5), 0.5, 1e-12);
    EXPECT_EQ(d.support(), 2u);
}

TEST(Distribution, ModeAndEntropy)
{
    Distribution d;
    d.addSamples(3, 9);
    d.addSamples(4, 1);
    EXPECT_EQ(d.mode(), 3u);
    EXPECT_GT(d.entropy(), 0.0);
    EXPECT_LT(d.entropy(), 1.0);

    Distribution uniform;
    uniform.addSamples(0, 1);
    uniform.addSamples(1, 1);
    EXPECT_NEAR(uniform.entropy(), 1.0, 1e-12);
}

TEST(Tvd, IdenticalDistributionsHaveZeroDistance)
{
    Distribution p;
    p.addSamples(0, 10);
    p.addSamples(1, 10);
    EXPECT_NEAR(totalVariationDistance(p, p), 0.0, 1e-12);
    EXPECT_NEAR(fidelity(p, p), 1.0, 1e-12);
}

TEST(Tvd, DisjointDistributionsHaveDistanceOne)
{
    Distribution p, q;
    p.addSamples(0, 5);
    q.addSamples(1, 5);
    EXPECT_NEAR(totalVariationDistance(p, q), 1.0, 1e-12);
    EXPECT_NEAR(fidelity(p, q), 0.0, 1e-12);
}

TEST(Tvd, HandComputedValue)
{
    Distribution p, q;
    p.addSamples(0, 6);
    p.addSamples(1, 4);
    q.addSamples(0, 2);
    q.addSamples(1, 8);
    // |0.6-0.2| + |0.4-0.8| = 0.8 -> TVD 0.4
    EXPECT_NEAR(totalVariationDistance(p, q), 0.4, 1e-12);
}

TEST(Tvd, SymmetricAndBounded)
{
    Rng rng(77);
    for (int trial = 0; trial < 20; trial++) {
        Distribution p, q;
        for (int i = 0; i < 8; i++) {
            p.addSamples(i, rng.uniformInt(20) + 1);
            q.addSamples(i, rng.uniformInt(20) + 1);
        }
        const double d1 = totalVariationDistance(p, q);
        const double d2 = totalVariationDistance(q, p);
        EXPECT_NEAR(d1, d2, 1e-12);
        EXPECT_GE(d1, 0.0);
        EXPECT_LE(d1, 1.0);
    }
}

TEST(Correlation, SpearmanPerfectMonotone)
{
    const std::vector<double> x = {1, 2, 3, 4, 5};
    const std::vector<double> y = {10, 100, 1000, 10000, 100000};
    EXPECT_NEAR(spearmanCorrelation(x, y), 1.0, 1e-12);
}

TEST(Correlation, SpearmanReversed)
{
    const std::vector<double> x = {1, 2, 3, 4, 5};
    const std::vector<double> y = {5, 4, 3, 2, 1};
    EXPECT_NEAR(spearmanCorrelation(x, y), -1.0, 1e-12);
}

TEST(Correlation, SpearmanHandlesTies)
{
    const std::vector<double> x = {1, 2, 2, 4};
    const std::vector<double> y = {3, 5, 5, 9};
    EXPECT_NEAR(spearmanCorrelation(x, y), 1.0, 1e-12);
}

TEST(Correlation, PearsonLinear)
{
    const std::vector<double> x = {0, 1, 2, 3};
    const std::vector<double> y = {1, 3, 5, 7};
    EXPECT_NEAR(pearsonCorrelation(x, y), 1.0, 1e-12);
}

TEST(Correlation, RequiresEqualLengths)
{
    EXPECT_THROW(spearmanCorrelation({1.0, 2.0}, {1.0}), UsageError);
}

TEST(Aggregates, GeometricMean)
{
    EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_THROW(geometricMean({1.0, -1.0}), UsageError);
}

TEST(Aggregates, MeanMinMaxStddev)
{
    const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
    EXPECT_NEAR(mean(v), 2.5, 1e-12);
    EXPECT_NEAR(minOf(v), 1.0, 1e-12);
    EXPECT_NEAR(maxOf(v), 4.0, 1e-12);
    EXPECT_NEAR(stddev(v), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Aggregates, Percentile)
{
    const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
    EXPECT_NEAR(percentile(v, 0), 1.0, 1e-12);
    EXPECT_NEAR(percentile(v, 100), 4.0, 1e-12);
    EXPECT_NEAR(percentile(v, 50), 2.5, 1e-12);
}

TEST(HistogramTest, BinningAndClamping)
{
    Histogram h(0.0, 1.0, 4);
    h.add(0.1);  // bin 0
    h.add(0.3);  // bin 1
    h.add(0.95); // bin 3
    h.add(-5.0); // clamped to bin 0
    h.add(7.0);  // clamped to bin 3
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(1), 1u);
    EXPECT_EQ(h.count(2), 0u);
    EXPECT_EQ(h.count(3), 2u);
    EXPECT_EQ(h.totalCount(), 5u);
    EXPECT_NEAR(h.binCenter(0), 0.125, 1e-12);
}

// ---------------------------------------------------------- OutcomePacker

TEST(OutcomePacker, NarrowRegistersPackBitForBit)
{
    OutcomePacker p(10);
    p.set(0, true);
    p.set(3, true);
    p.set(9, true);
    EXPECT_EQ(p.key(), (uint64_t{1} << 0) | (uint64_t{1} << 3) |
                           (uint64_t{1} << 9));
    p.set(3, false);
    EXPECT_EQ(p.key(), (uint64_t{1} << 0) | (uint64_t{1} << 9));
    p.clear();
    EXPECT_EQ(p.key(), 0u);
}

TEST(OutcomePacker, SixtyFourBitRegisterStaysDirect)
{
    OutcomePacker p(64);
    p.set(63, true);
    EXPECT_EQ(p.key(), uint64_t{1} << 63);
}

TEST(OutcomePacker, WideRegistersFingerprintDeterministically)
{
    // Same bitstring -> same key; single-bit changes anywhere in the
    // register -> different keys (the fold must see every word).
    OutcomePacker a(100), b(100);
    for (int c : {0, 5, 63, 64, 70, 99}) {
        a.set(c, true);
        b.set(c, true);
    }
    EXPECT_EQ(a.key(), b.key());

    const uint64_t base = a.key();
    a.set(99, false);
    EXPECT_NE(a.key(), base);
    a.set(99, true);
    EXPECT_EQ(a.key(), base);
    a.set(0, false);
    EXPECT_NE(a.key(), base);

    b.clear();
    OutcomePacker fresh(100);
    EXPECT_EQ(b.key(), fresh.key());
}

TEST(OutcomePacker, WideKeysRarelyCollide)
{
    // 4096 random 100-bit strings: any collision would be a fold bug
    // (expected rate ~ 4096^2 / 2^64).
    Rng rng(77);
    std::set<uint64_t> keys;
    for (int i = 0; i < 4096; i++) {
        OutcomePacker p(100);
        for (int c = 0; c < 100; c++)
            p.set(c, rng.bernoulli(0.5));
        keys.insert(p.key());
    }
    EXPECT_EQ(keys.size(), 4096u);
}

TEST(OutcomePacker, RejectsOutOfRangeBits)
{
    OutcomePacker p(10);
    EXPECT_THROW(p.set(10, true), UsageError);
    EXPECT_THROW(p.set(-1, true), UsageError);
    EXPECT_THROW(OutcomePacker(0), UsageError);
}

TEST(HotPathChecks, PassingChecksAllocateNothing)
{
    // Checks on the per-shot path (every measured bit goes through
    // OutcomePacker::set) must not build their error message unless
    // they fail: a message longer than the small-string buffer costs
    // a heap allocation per call.
    OutcomePacker packer(100);
    int ones = 0;
    allocations = 0;
    countingAllocations = true;
    for (int i = 0; i < 10000; i++) {
        packer.set(i % 100, (i & 1) != 0);
        ones += packer.get(i % 100);
        require(true, "a literal message well past the small-string "
                      "buffer of std::string");
    }
    countingAllocations = false;
    EXPECT_EQ(allocations, 0);
    EXPECT_EQ(ones, 5000);

    // The failing path still names the offending bit.
    try {
        packer.set(100, true);
        FAIL() << "out-of-range clbit accepted";
    } catch (const UsageError &e) {
        EXPECT_NE(std::string(e.what()).find("clbit 100"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(packer.get(-1), UsageError);
    EXPECT_THROW(require(false, "literal check"), UsageError);
}

// ------------------------------------------------------ env parsing

TEST(EnvParse, ParseIntAcceptsOnlyWholeIntegers)
{
    EXPECT_EQ(parseInt("42").value(), 42);
    EXPECT_EQ(parseInt("-7").value(), -7);
    EXPECT_EQ(parseInt("+3").value(), 3);
    EXPECT_FALSE(parseInt(nullptr).has_value());
    EXPECT_FALSE(parseInt("").has_value());
    EXPECT_FALSE(parseInt("abc").has_value());
    EXPECT_FALSE(parseInt("12abc").has_value());
    EXPECT_FALSE(parseInt("1.5").has_value());
    EXPECT_FALSE(parseInt("4 ").has_value());
    // Overflow past long long is rejected, not clamped.
    EXPECT_FALSE(parseInt("99999999999999999999999").has_value());
    EXPECT_FALSE(parseInt("-99999999999999999999999").has_value());
}

TEST(EnvParse, ParseDoubleRejectsGarbageAndOverflow)
{
    EXPECT_DOUBLE_EQ(parseDouble("0.25").value(), 0.25);
    EXPECT_DOUBLE_EQ(parseDouble("-1e-3").value(), -1e-3);
    EXPECT_FALSE(parseDouble(nullptr).has_value());
    EXPECT_FALSE(parseDouble("").has_value());
    EXPECT_FALSE(parseDouble("zero").has_value());
    EXPECT_FALSE(parseDouble("0.5x").has_value());
    EXPECT_FALSE(parseDouble("1e999").has_value());
}

TEST(EnvParse, ParseIntKnobEnforcesRange)
{
    EXPECT_EQ(parseIntKnob("K", "8", 1, 16).value(), 8);
    EXPECT_FALSE(parseIntKnob("K", "0", 1, 16).has_value());
    EXPECT_FALSE(parseIntKnob("K", "17", 1, 16).has_value());
    EXPECT_FALSE(parseIntKnob("K", "-3", 1, 16).has_value());
    EXPECT_FALSE(parseIntKnob("K", "junk", 1, 16).has_value());
}

TEST(EnvParse, ParseFlagKnobAcceptsCanonicalSpellings)
{
    EXPECT_TRUE(parseFlagKnob("F", "1").value());
    EXPECT_TRUE(parseFlagKnob("F", "on").value());
    EXPECT_TRUE(parseFlagKnob("F", "true").value());
    EXPECT_FALSE(parseFlagKnob("F", "0").value());
    EXPECT_FALSE(parseFlagKnob("F", "off").value());
    EXPECT_FALSE(parseFlagKnob("F", "false").value());
    EXPECT_FALSE(parseFlagKnob("F", "yes").has_value());
    EXPECT_FALSE(parseFlagKnob("F", "2").has_value());
    EXPECT_FALSE(parseFlagKnob("F", nullptr).has_value());
}

TEST(EnvParse, EnvHelpersFallBackOnGarbage)
{
    setenv("ADAPT_TEST_KNOB", "12", 1);
    EXPECT_EQ(envInt("ADAPT_TEST_KNOB", 5, 1, 100), 12);
    setenv("ADAPT_TEST_KNOB", "garbage", 1);
    EXPECT_EQ(envInt("ADAPT_TEST_KNOB", 5, 1, 100), 5);
    setenv("ADAPT_TEST_KNOB", "-1", 1);
    EXPECT_EQ(envInt("ADAPT_TEST_KNOB", 5, 1, 100), 5);
    setenv("ADAPT_TEST_KNOB", "99999999999999999999", 1);
    EXPECT_EQ(envInt("ADAPT_TEST_KNOB", 5, 1, 100), 5);
    unsetenv("ADAPT_TEST_KNOB");
    EXPECT_EQ(envInt("ADAPT_TEST_KNOB", 5, 1, 100), 5);

    setenv("ADAPT_TEST_FLAG", "on", 1);
    EXPECT_TRUE(envFlag("ADAPT_TEST_FLAG", false));
    setenv("ADAPT_TEST_FLAG", "maybe", 1);
    EXPECT_TRUE(envFlag("ADAPT_TEST_FLAG", true));
    EXPECT_FALSE(envFlag("ADAPT_TEST_FLAG", false));
    unsetenv("ADAPT_TEST_FLAG");

    setenv("ADAPT_TEST_P", "0.75", 1);
    EXPECT_DOUBLE_EQ(envProbability("ADAPT_TEST_P", 0.1), 0.75);
    setenv("ADAPT_TEST_P", "1.5", 1);
    EXPECT_DOUBLE_EQ(envProbability("ADAPT_TEST_P", 0.1), 0.1);
    setenv("ADAPT_TEST_P", "-0.1", 1);
    EXPECT_DOUBLE_EQ(envProbability("ADAPT_TEST_P", 0.1), 0.1);
    unsetenv("ADAPT_TEST_P");
}
