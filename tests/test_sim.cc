/**
 * @file
 * Tests for the simulators: state-vector gate semantics and measurement,
 * bit-identity of the dense kernels' scalar and AVX2 bodies,
 * stabilizer tableau correctness, and cross-backend agreement on
 * random Clifford circuits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "sim/dense_kernels.hh"
#include "sim/stabilizer.hh"
#include "sim/statevector.hh"
#include "test_util.hh"

using namespace adapt;
using adapt::testutil::tvDistance;

// ----------------------------------------------------------- StateVector

TEST(StateVec, StartsInGroundState)
{
    StateVector s(3);
    EXPECT_NEAR(std::abs(s.amplitude(0) - Complex(1, 0)), 0.0, 1e-12);
    EXPECT_NEAR(s.probability(5), 0.0, 1e-12);
    EXPECT_NEAR(s.norm(), 1.0, 1e-12);
}

TEST(StateVec, HadamardMakesUniformSuperposition)
{
    StateVector s(1);
    s.apply1Q(gateMatrix(GateType::H), 0);
    EXPECT_NEAR(s.probability(0), 0.5, 1e-12);
    EXPECT_NEAR(s.probability(1), 0.5, 1e-12);
}

TEST(StateVec, BellStateCorrelations)
{
    StateVector s(2);
    s.apply1Q(gateMatrix(GateType::H), 0);
    s.applyCX(0, 1);
    EXPECT_NEAR(s.probability(0b00), 0.5, 1e-12);
    EXPECT_NEAR(s.probability(0b11), 0.5, 1e-12);
    EXPECT_NEAR(s.probability(0b01), 0.0, 1e-12);
    EXPECT_NEAR(s.probability(0b10), 0.0, 1e-12);
}

TEST(StateVec, CxRespectsControl)
{
    StateVector s(2);
    s.applyCX(0, 1); // control |0>: no-op
    EXPECT_NEAR(s.probability(0), 1.0, 1e-12);
    s.apply1Q(gateMatrix(GateType::X), 0);
    s.applyCX(0, 1); // control |1>: flips target
    EXPECT_NEAR(s.probability(0b11), 1.0, 1e-12);
}

TEST(StateVec, SwapExchangesQubits)
{
    StateVector s(2);
    s.apply1Q(gateMatrix(GateType::X), 0);
    s.applySwap(0, 1);
    EXPECT_NEAR(s.probability(0b10), 1.0, 1e-12);
}

TEST(StateVec, CzPhasesOnlyOneOne)
{
    StateVector s(2);
    s.apply1Q(gateMatrix(GateType::H), 0);
    s.apply1Q(gateMatrix(GateType::H), 1);
    s.applyCZ(0, 1);
    // |11> amplitude must be negative, all same magnitude.
    EXPECT_NEAR(s.amplitude(3).real(), -0.5, 1e-12);
    EXPECT_NEAR(s.amplitude(0).real(), 0.5, 1e-12);
}

TEST(StateVec, ApplyPhaseEqualsRz)
{
    StateVector a(2), b(2);
    a.apply1Q(gateMatrix(GateType::H), 1);
    b.apply1Q(gateMatrix(GateType::H), 1);
    a.applyPhase(1, 0.73);
    b.apply1Q(gateMatrix(GateType::RZ, {0.73}), 1);
    for (uint64_t i = 0; i < 4; i++) {
        // Equal up to the RZ global phase e^{-i 0.73/2}.
        const Complex ratio =
            b.amplitude(i) != Complex{}
                ? a.amplitude(i) / b.amplitude(i)
                : Complex{1.0, 0.0};
        EXPECT_NEAR(std::abs(ratio), 1.0, 1e-9);
    }
    EXPECT_NEAR(a.populationOne(1), b.populationOne(1), 1e-12);
}

TEST(StateVec, PopulationOne)
{
    StateVector s(2);
    s.apply1Q(gateMatrix(GateType::RY, {kPi / 3.0}), 0);
    EXPECT_NEAR(s.populationOne(0), std::pow(std::sin(kPi / 6.0), 2),
                1e-12);
    EXPECT_NEAR(s.populationOne(1), 0.0, 1e-12);
}

TEST(StateVec, MeasureCollapseProjects)
{
    Rng rng(4);
    int ones = 0;
    for (int trial = 0; trial < 500; trial++) {
        StateVector s(2);
        s.apply1Q(gateMatrix(GateType::H), 0);
        s.applyCX(0, 1);
        const bool first = s.measureCollapse(0, rng);
        const bool second = s.measureCollapse(1, rng);
        EXPECT_EQ(first, second); // Bell correlations survive collapse
        ones += first;
    }
    EXPECT_NEAR(ones / 500.0, 0.5, 0.08);
}

TEST(StateVec, DecayJumpResetsQubit)
{
    StateVector s(2);
    s.apply1Q(gateMatrix(GateType::X), 0);
    s.apply1Q(gateMatrix(GateType::H), 1);
    s.applyDecayJump(0);
    EXPECT_NEAR(s.populationOne(0), 0.0, 1e-12);
    EXPECT_NEAR(s.populationOne(1), 0.5, 1e-12); // untouched
}

TEST(StateVec, RejectsOversizedRegisters)
{
    EXPECT_THROW(StateVector(40), UsageError);
}

TEST(StateVec, RejectsQubitsOutOfRange)
{
    // Every op that indexes the per-bit operator table checks its
    // qubits, including the diagonal ones and the reads that would
    // otherwise be silent no-ops, and qubits >= 64 that would shift a
    // word out of range.
    StateVector s(3);
    Rng rng(1);
    for (const QubitId q : {-1, 3, 64, 70}) {
        EXPECT_THROW(s.apply1Q(gateMatrix(GateType::X), q), UsageError);
        EXPECT_THROW(s.applyPhase(q, 0.5), UsageError);
        EXPECT_THROW(s.applyDecayJump(q), UsageError);
        EXPECT_THROW(s.applyCX(0, q), UsageError);
        EXPECT_THROW(s.applyCX(q, 0), UsageError);
        EXPECT_THROW(s.applyCZ(0, q), UsageError);
        EXPECT_THROW(s.applyCZ(q, 0), UsageError);
        EXPECT_THROW(s.applySwap(0, q), UsageError);
        EXPECT_THROW(s.applySwap(q, 0), UsageError);
        EXPECT_THROW(s.populationOne(q), UsageError);
        EXPECT_THROW(s.measureCollapse(q, rng), UsageError);
        EXPECT_THROW(s.measureRetire(q, rng), UsageError);
    }
    EXPECT_EQ(s.probability(0), 1.0);
}

// ------------------------------------------------ dense kernel bodies

namespace
{

/** A random normalized state over @p n qubits. */
std::vector<Complex>
randomState(int n, Rng &rng)
{
    std::vector<Complex> amps(size_t{1} << n);
    double sum = 0.0;
    for (Complex &a : amps) {
        a = Complex(rng.normal(), rng.normal());
        sum += std::norm(a);
    }
    for (Complex &a : amps)
        a /= std::sqrt(sum);
    return amps;
}

/** A random single-qubit unitary, global phase included. */
Matrix2
randomUnitary(Rng &rng)
{
    double a[4];
    for (double &x : a)
        x = rng.uniform(-kPi, kPi);
    return gateMatrix(GateType::RZ, {a[0]}) *
           gateMatrix(GateType::RY, {a[1]}) *
           gateMatrix(GateType::RZ, {a[2]}) * std::exp(kImag * a[3]);
}

bool
bitEqual(const std::vector<Complex> &a, const std::vector<Complex> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) ==
               0;
}

bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

} // namespace

TEST(StateVec, Avx2BodiesMatchScalarBitForBit)
{
    if (!detail::cpuHasAvx2())
        GTEST_SKIP() << "this CPU lacks AVX2";
    const detail::DenseKernels &scalar = detail::scalarKernels();
    const detail::DenseKernels &avx2 = *detail::avx2Kernels();
    Rng rng(20240917);
    for (int n = 1; n <= 14; n++) {
        const uint64_t dim = uint64_t{1} << n;
        const std::vector<Complex> state = randomState(n, rng);
        const Complex *psi = state.data();

        EXPECT_TRUE(bitEqual(scalar.normSquared(psi, dim),
                             avx2.normSquared(psi, dim)))
            << "normSquared, n=" << n;

        const double s = rng.uniform(0.5, 2.0);
        std::vector<Complex> a = state, b = state;
        scalar.scale(a.data(), dim, s);
        avx2.scale(b.data(), dim, s);
        EXPECT_TRUE(bitEqual(a, b)) << "scale, n=" << n;

        for (QubitId q = 0; q < n; q++) {
            EXPECT_TRUE(bitEqual(scalar.populationOne(psi, dim, q),
                                 avx2.populationOne(psi, dim, q)))
                << "populationOne, n=" << n << " q=" << q;

            const Matrix2 u = randomUnitary(rng);
            a = state;
            b = state;
            scalar.apply1Q(a.data(), dim, u, q);
            avx2.apply1Q(b.data(), dim, u, q);
            EXPECT_TRUE(bitEqual(a, b))
                << "apply1Q, n=" << n << " q=" << q;

            const Complex factor =
                std::exp(kImag * rng.uniform(-kPi, kPi));
            a = state;
            b = state;
            scalar.applyPhase(a.data(), dim, q, factor);
            avx2.applyPhase(b.data(), dim, q, factor);
            EXPECT_TRUE(bitEqual(a, b))
                << "applyPhase, n=" << n << " q=" << q;
        }
    }
}

TEST(StateVec, DefaultBuildPicksAvx2WhenCpuHasIt)
{
    EXPECT_EQ(std::string(denseKernelIsa()),
              detail::cpuHasAvx2() ? "avx2" : "scalar");
}

TEST(StateVec, LivePrefixMatchesFullWidth)
{
    // Seeded random op sequences whose qubits join in a random, late
    // order, replayed op for op on a second vector forced to full
    // width up front.  Sweeping only the live prefix must leave every
    // amplitude equal and every reduction bit-equal.  Each op is
    // followed by amplitude reads, which flush every pending
    // operator; in that flushed state the live width must track the
    // highest bit a widening op touched.
    Rng rng(20261017);
    for (int n = 1; n <= 14; n++) {
        const uint64_t dim = uint64_t{1} << n;
        std::vector<Complex> ground(dim);
        ground[0] = 1.0;
        StateVector live(n);
        StateVector full(n);
        full.setAmplitudes(ground.data(), dim);
        ASSERT_EQ(live.liveQubits(), 1);
        ASSERT_EQ(full.liveQubits(), n);

        std::vector<QubitId> order(static_cast<size_t>(n));
        for (QubitId q = 0; q < n; q++)
            order[static_cast<size_t>(q)] = q;
        for (int i = n - 1; i > 0; i--) {
            std::swap(order[static_cast<size_t>(i)],
                      order[rng.uniformInt(static_cast<uint64_t>(i) + 1)]);
        }
        // Widening ops draw from the qubits joined so far, now and
        // then admitting the next one; reads and diagonal ops draw
        // from all qubits, so they also hit qubits not yet live.
        int joined = 1;
        auto joinedQubit = [&] {
            if (joined < n && rng.bernoulli(0.15))
                joined++;
            return order[rng.uniformInt(static_cast<uint64_t>(joined))];
        };
        auto anyQubit = [&] {
            return static_cast<QubitId>(
                rng.uniformInt(static_cast<uint64_t>(n)));
        };
        int expect_live = 1;
        auto widen = [&](QubitId q) {
            expect_live = std::max(expect_live, q + 1);
        };

        for (int op = 0; op < 120; op++) {
            const QubitId a = joinedQubit();
            QubitId b = a;
            while (n > 1 && b == a)
                b = joinedQubit();
            const uint64_t kind = rng.uniformInt(n > 1 ? 8 : 5);
            switch (kind) {
              case 0: {
                const Matrix2 u = randomUnitary(rng);
                live.apply1Q(u, a);
                full.apply1Q(u, a);
                widen(a);
                break;
              }
              case 1: {
                const QubitId q = anyQubit();
                const double phi = rng.uniform(-kPi, kPi);
                live.applyPhase(q, phi);
                full.applyPhase(q, phi);
                break;
              }
              case 2: {
                Rng twin_rng = rng;
                ASSERT_EQ(live.measureCollapse(a, rng),
                          full.measureCollapse(a, twin_rng));
                widen(a);
                break;
              }
              case 3:
                if (full.populationOne(a) > 1e-3) {
                    live.applyDecayJump(a);
                    full.applyDecayJump(a);
                    widen(a);
                }
                break;
              case 4: {
                const QubitId q = anyQubit();
                ASSERT_TRUE(bitEqual(live.populationOne(q),
                                     full.populationOne(q)))
                    << "populationOne, n=" << n << " q=" << q;
                break;
              }
              case 5:
                live.applyCX(a, b);
                full.applyCX(a, b);
                widen(a);
                widen(b);
                break;
              case 6:
                live.applySwap(a, b);
                full.applySwap(a, b);
                widen(a);
                widen(b);
                break;
              default: {
                QubitId q = anyQubit();
                while (q == a)
                    q = anyQubit();
                live.applyCZ(a, q);
                full.applyCZ(a, q);
                break;
              }
            }
            for (uint64_t i = 0; i < dim; i++) {
                ASSERT_EQ(live.amplitude(i), full.amplitude(i))
                    << "n=" << n << " op " << op << " index " << i;
            }
            ASSERT_EQ(live.liveQubits(), expect_live)
                << "n=" << n << " op " << op;
            ASSERT_TRUE(bitEqual(live.norm(), full.norm()))
                << "norm, n=" << n << " op " << op;
        }
        for (QubitId q = 0; q < n; q++) {
            EXPECT_TRUE(bitEqual(live.populationOne(q),
                                 full.populationOne(q)))
                << "populationOne, n=" << n << " q=" << q;
        }

        live.reset();
        EXPECT_EQ(live.liveQubits(), 1);
        EXPECT_EQ(live.amplitude(0), Complex(1.0));
        for (uint64_t i = 1; i < dim; i++)
            ASSERT_EQ(live.amplitude(i), Complex{}) << "index " << i;
    }
}

TEST(StateVec, FinalMeasurementMatchesCollapseInPlace)
{
    // measureRetire on one vector, measureCollapse with the same draw
    // on a twin.  After each readout the retired vector must hold the
    // twin's amplitudes with the retired bits deleted, bit for bit,
    // and every reduction must be bit-equal.  States come at full and
    // at partial live width; each readout order covers bit 0 (which
    // collapses in place), bits inside the prefix and, at partial
    // width, one bit above it.
    Rng rng(20261018);
    for (int n = 2; n <= 14; n++) {
        const uint64_t dim = uint64_t{1} << n;
        for (const bool partial : {false, true}) {
            StateVector retired(n);
            int width = n;
            if (partial) {
                width = 1 + static_cast<int>(rng.uniformInt(
                                static_cast<uint64_t>(n - 1)));
                for (int layer = 0; layer < 2; layer++) {
                    for (QubitId q = 0; q < width; q++)
                        retired.apply1Q(randomUnitary(rng), q);
                    for (QubitId q = 0; q + 1 < width; q++)
                        retired.applyCX(q, q + 1);
                }
            } else {
                const std::vector<Complex> psi = randomState(n, rng);
                retired.setAmplitudes(psi.data(), psi.size());
            }
            ASSERT_EQ(retired.liveQubits(), width);
            StateVector twin = retired;

            // Readouts: qubit 0, a random subset of the other live
            // qubits (all of them at full width) and, at partial width,
            // one qubit above the prefix; shuffled.
            std::vector<QubitId> order = {0};
            for (QubitId q = 1; q < width; q++) {
                if (!partial || rng.bernoulli(0.6))
                    order.push_back(q);
            }
            if (partial) {
                const auto above = static_cast<QubitId>(
                    rng.uniformInt(static_cast<uint64_t>(n - width)));
                order.push_back(width + above);
            }
            for (size_t i = order.size() - 1; i > 0; i--)
                std::swap(order[i], order[rng.uniformInt(i + 1)]);

            // The identity layout, shifted as bits retire (-1 once
            // retired).  Qubit 0 keeps bit 0 throughout; `kept` is the
            // twin index of the removed qubits' outcomes.
            std::vector<int> bits(static_cast<size_t>(n));
            for (int q = 0; q < n; q++)
                bits[static_cast<size_t>(q)] = q;
            uint64_t kept = 0;
            int width_bits = n; // bits the retired register still has
            for (const QubitId q : order) {
                const int b = bits[static_cast<size_t>(q)];
                const int live_before = retired.liveQubits();
                Rng twin_rng = rng;
                const bool outcome = retired.measureRetire(b, rng);
                ASSERT_EQ(outcome, twin.measureCollapse(q, twin_rng))
                    << "n=" << n << " q=" << q;
                retireBit(bits, q);
                if (b > 0) {
                    width_bits--;
                    if (outcome)
                        kept |= uint64_t{1} << q;
                }
                ASSERT_EQ(retired.liveQubits(),
                          b >= 1 && b < live_before ? live_before - 1
                                                    : live_before)
                    << "n=" << n << " q=" << q;

                // owner[b]: the twin qubit at retired-register bit b.
                std::vector<QubitId> owner(static_cast<size_t>(n), 0);
                for (QubitId r = 0; r < n; r++) {
                    const int rb = bits[static_cast<size_t>(r)];
                    if (rb >= 0)
                        owner[static_cast<size_t>(rb)] = r;
                }
                const uint64_t live_dim = uint64_t{1}
                                          << retired.liveQubits();
                for (uint64_t j = 0; j < dim; j++) {
                    if (j >= live_dim || j >> width_bits != 0) {
                        ASSERT_EQ(retired.amplitude(j), Complex{})
                            << "n=" << n << " index " << j;
                        continue;
                    }
                    uint64_t t = kept;
                    for (int jb = 0; jb < width_bits; jb++) {
                        if (j >> jb & 1)
                            t |= uint64_t{1}
                                 << owner[static_cast<size_t>(jb)];
                    }
                    ASSERT_EQ(retired.amplitude(j), twin.amplitude(t))
                        << "n=" << n << " index " << j;
                }
                for (QubitId r = 0; r < n; r++) {
                    const int rb = bits[static_cast<size_t>(r)];
                    if (rb < 0)
                        continue;
                    ASSERT_TRUE(bitEqual(retired.populationOne(rb),
                                         twin.populationOne(r)))
                        << "populationOne, n=" << n << " q=" << r;
                }
                ASSERT_TRUE(bitEqual(retired.norm(), twin.norm()))
                    << "norm, n=" << n;
            }

            retired.reset();
            EXPECT_EQ(retired.liveQubits(), 1);
            EXPECT_EQ(retired.amplitude(0), Complex(1.0));
            for (uint64_t i = 1; i < dim; i++)
                ASSERT_EQ(retired.amplitude(i), Complex{}) << "index " << i;
        }
    }
}

namespace
{

/**
 * The eager reference for lazy operators: a plain full-width amplitude
 * array on which every op is swept at once, through the scalar kernel
 * bodies where one exists.
 */
struct EagerState
{
    std::vector<Complex> amps;
    const detail::DenseKernels &k = detail::scalarKernels();

    explicit EagerState(int n) : amps(size_t{1} << n) { amps[0] = 1.0; }

    uint64_t dim() const { return amps.size(); }

    void apply1Q(const Matrix2 &u, QubitId q)
    {
        k.apply1Q(amps.data(), dim(), u, q);
    }

    void
    applyPhase(QubitId q, double phi)
    {
        k.applyPhase(amps.data(), dim(), q, std::exp(kImag * phi));
    }

    double
    populationOne(QubitId q) const
    {
        return k.populationOne(amps.data(), dim(), q);
    }

    void
    normalize()
    {
        k.scale(amps.data(), dim(),
                1.0 / std::sqrt(k.normSquared(amps.data(), dim())));
    }

    /** Visit every index with bit @p a set and bit @p b clear. */
    template <typename Fn>
    void
    forSetClear(QubitId a, QubitId b, Fn &&fn)
    {
        for (uint64_t i = 0; i < dim(); i++) {
            if ((i >> a & 1) && !(i >> b & 1))
                fn(i);
        }
    }

    void
    applyCX(QubitId c, QubitId t)
    {
        forSetClear(c, t, [&](uint64_t i) {
            std::swap(amps[i], amps[i | uint64_t{1} << t]);
        });
    }

    void
    applyCZ(QubitId a, QubitId b)
    {
        for (uint64_t i = 0; i < dim(); i++) {
            if ((i >> a & 1) && (i >> b & 1))
                amps[i] = -amps[i];
        }
    }

    void
    applySwap(QubitId a, QubitId b)
    {
        const uint64_t flip = uint64_t{1} << a | uint64_t{1} << b;
        forSetClear(a, b,
                    [&](uint64_t i) { std::swap(amps[i], amps[i ^ flip]); });
    }

    void
    applyDecayJump(QubitId q)
    {
        const uint64_t bit = uint64_t{1} << q;
        for (uint64_t i = 0; i < dim(); i++) {
            if (i & bit) {
                amps[i & ~bit] = amps[i];
                amps[i] = 0.0;
            }
        }
        normalize();
    }

    void
    collapse(QubitId q, bool outcome)
    {
        for (uint64_t i = 0; i < dim(); i++) {
            if (((i >> q & 1) != 0) != outcome)
                amps[i] = 0.0;
        }
        normalize();
    }

    /** Collapse bit @p q >= 1 and delete it: the bits above it shift
     *  down, and the top bit is a fresh |0>. */
    void
    retire(QubitId q, bool outcome)
    {
        collapse(q, outcome);
        const uint64_t bit = uint64_t{1} << q;
        std::vector<Complex> out(dim());
        for (uint64_t j = 0; j < dim() / 2; j++) {
            const uint64_t low = j & (bit - 1);
            out[j] = amps[(j - low) << 1 | (outcome ? bit : 0) | low];
        }
        amps = std::move(out);
    }
};

/**
 * Largest |lazy - phase * ref| over all amplitudes, with the global
 * phase (which dropped diagonal operators may move) fitted at the
 * reference's largest amplitude.  Flushes every pending operator.
 */
double
maxDeviation(StateVector &lazy, const EagerState &ref)
{
    uint64_t top = 0;
    for (uint64_t i = 0; i < ref.dim(); i++) {
        if (std::abs(ref.amps[i]) > std::abs(ref.amps[top]))
            top = i;
    }
    const Complex phase = lazy.amplitude(top) / ref.amps[top];
    double dev = std::abs(std::abs(phase) - 1.0);
    for (uint64_t i = 0; i < ref.dim(); i++)
        dev = std::max(dev, std::abs(lazy.amplitude(i) - phase * ref.amps[i]));
    return dev;
}

} // namespace

TEST(StateVec, LazyOperatorsMatchEagerSweeps)
{
    // Seeded op sequences at n = 1..14, so the live prefix sits on both
    // sides of the eager width, against EagerState.  Reads come only
    // now and then, so single-qubit ops pile up in the pending
    // operators: general and diagonal ones, carried through SWAPs,
    // past CZ and CX controls, dropped by collapses, and shifted by
    // retiring bits below them.  The top qubit never interacts: it
    // takes DD trains (X, Y and idle phases) that must leave the live
    // width alone.
    Rng rng(20261019);
    for (int n = 1; n <= 14; n++) {
        StateVector lazy(n);
        EagerState ref(n);
        QubitId dd = n >= 2 ? n - 1 : -1; // shifts down as bits retire
        auto train = [&] {
            const int live = lazy.liveQubits();
            for (int pulse = 0; pulse < 4; pulse++) {
                const Matrix2 u =
                    gateMatrix(pulse % 2 == 0 ? GateType::X : GateType::Y);
                const double phi = rng.uniform(-0.1, 0.1);
                lazy.apply1Q(u, dd);
                ref.apply1Q(u, dd);
                lazy.applyPhase(dd, phi);
                ref.applyPhase(dd, phi);
                ASSERT_EQ(lazy.liveQubits(), live) << "n=" << n;
            }
        };
        auto retire = [&](QubitId q) {
            const bool outcome = lazy.measureRetire(q, rng);
            if (q == 0) {
                ref.collapse(0, outcome);
                return;
            }
            ref.retire(q, outcome);
            if (q < dd)
                dd--;
        };

        if (n >= 3) {
            // A retire below the bit that holds a pending train.
            const Matrix2 h = gateMatrix(GateType::H);
            lazy.apply1Q(h, 1);
            ref.apply1Q(h, 1);
            lazy.applyCX(1, 0);
            ref.applyCX(1, 0);
            train();
            retire(1);
            ASSERT_EQ(dd, n - 2);
            ASSERT_LT(maxDeviation(lazy, ref), 1e-12) << "n=" << n;
        }

        auto bitBesidesDd = [&](QubitId other) {
            QubitId q;
            do {
                q = static_cast<QubitId>(
                    rng.uniformInt(static_cast<uint64_t>(n)));
            } while (q == dd || q == other);
            return q;
        };
        // Bits other than dd: two-qubit ops need two of them.
        const bool pairs = n - (dd >= 0 ? 1 : 0) >= 2;
        for (int op = 0; op < 240; op++) {
            const QubitId a = bitBesidesDd(-1);
            switch (rng.uniformInt(12)) {
              case 0: {
                const Matrix2 u = randomUnitary(rng);
                lazy.apply1Q(u, a);
                ref.apply1Q(u, a);
                break;
              }
              case 1: {
                const Matrix2 u = rng.bernoulli(0.5)
                                      ? gateMatrix(GateType::Z)
                                      : gateMatrix(GateType::RZ,
                                                   {rng.uniform(-kPi, kPi)});
                lazy.apply1Q(u, a);
                ref.apply1Q(u, a);
                break;
              }
              case 2: {
                const double phi = rng.uniform(-kPi, kPi);
                lazy.applyPhase(a, phi);
                ref.applyPhase(a, phi);
                break;
              }
              case 3:
                if (pairs) {
                    const QubitId b = bitBesidesDd(a);
                    lazy.applyCX(a, b);
                    ref.applyCX(a, b);
                }
                break;
              case 4:
                if (pairs) {
                    const QubitId b = bitBesidesDd(a);
                    lazy.applyCZ(a, b);
                    ref.applyCZ(a, b);
                }
                break;
              case 5:
                if (pairs) {
                    const QubitId b = bitBesidesDd(a);
                    lazy.applySwap(a, b);
                    ref.applySwap(a, b);
                }
                break;
              case 6:
                if (ref.populationOne(a) > 1e-3) {
                    lazy.applyDecayJump(a);
                    ref.applyDecayJump(a);
                }
                break;
              case 7:
                ref.collapse(a, lazy.measureCollapse(a, rng));
                break;
              case 8:
                retire(a);
                break;
              case 9:
                if (dd >= 0)
                    train();
                break;
              case 10:
                ASSERT_NEAR(lazy.populationOne(a), ref.populationOne(a),
                            1e-12)
                    << "n=" << n << " op " << op << " q=" << a;
                break;
              default:
                ASSERT_LT(maxDeviation(lazy, ref), 1e-12)
                    << "n=" << n << " op " << op;
                ASSERT_NEAR(lazy.norm(), 1.0, 1e-12);
                break;
            }
        }
        EXPECT_LT(maxDeviation(lazy, ref), 1e-12) << "n=" << n;
    }
}

// ------------------------------------------------------ idealDistribution

TEST(IdealDistribution, GhzOutput)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.measureAll();
    const Distribution d = idealDistribution(c);
    EXPECT_NEAR(d.probability(0b000), 0.5, 1e-12);
    EXPECT_NEAR(d.probability(0b111), 0.5, 1e-12);
    EXPECT_EQ(d.support(), 2u);
}

TEST(IdealDistribution, ClbitRemapping)
{
    Circuit c(2, 2);
    c.x(0);
    c.measure(0, 1); // qubit 0 -> classical bit 1
    c.measure(1, 0);
    const Distribution d = idealDistribution(c);
    EXPECT_NEAR(d.probability(0b10), 1.0, 1e-12);
}

TEST(IdealDistribution, RestrictionIgnoresIdleQubits)
{
    // 24-qubit register, only 2 active: must not allocate 2^24.
    Circuit c(24, 2);
    c.h(20);
    c.cx(20, 21);
    c.measure(20, 0);
    c.measure(21, 1);
    const Distribution d = idealDistribution(c);
    EXPECT_NEAR(d.probability(0b00), 0.5, 1e-12);
    EXPECT_NEAR(d.probability(0b11), 0.5, 1e-12);
}

TEST(IdealDistribution, RequiresMeasurement)
{
    Circuit c(1);
    c.h(0);
    EXPECT_THROW(idealDistribution(c), UsageError);
}

// ------------------------------------------------------------ Stabilizer

TEST(Stabilizer, DeterministicGroundStateMeasurement)
{
    StabilizerState s(3);
    Rng rng(1);
    EXPECT_TRUE(s.isDeterministic(0));
    EXPECT_FALSE(s.measure(0, rng));
    EXPECT_FALSE(s.measure(2, rng));
}

TEST(Stabilizer, XFlipsMeasurement)
{
    StabilizerState s(2);
    Rng rng(2);
    s.applyX(1);
    EXPECT_FALSE(s.measure(0, rng));
    EXPECT_TRUE(s.measure(1, rng));
}

TEST(Stabilizer, HadamardRandomizesOutcome)
{
    Rng rng(3);
    int ones = 0;
    for (int i = 0; i < 2000; i++) {
        StabilizerState s(1);
        s.applyH(0);
        EXPECT_FALSE(s.isDeterministic(0));
        ones += s.measure(0, rng);
    }
    EXPECT_NEAR(ones / 2000.0, 0.5, 0.04);
}

TEST(Stabilizer, MeasurementCollapses)
{
    Rng rng(4);
    for (int i = 0; i < 100; i++) {
        StabilizerState s(1);
        s.applyH(0);
        const bool first = s.measure(0, rng);
        // Re-measurement must be deterministic and equal.
        EXPECT_TRUE(s.isDeterministic(0));
        EXPECT_EQ(s.measure(0, rng), first);
    }
}

TEST(Stabilizer, BellPairCorrelations)
{
    Rng rng(5);
    int ones = 0;
    for (int i = 0; i < 2000; i++) {
        StabilizerState s(2);
        s.applyH(0);
        s.applyCX(0, 1);
        const bool a = s.measure(0, rng);
        const bool b = s.measure(1, rng);
        EXPECT_EQ(a, b);
        ones += a;
    }
    EXPECT_NEAR(ones / 2000.0, 0.5, 0.04);
}

TEST(Stabilizer, SGateTurnsXIntoY)
{
    // |+> -S-> |+i>: measuring in Z stays uniform; applying Sdg H
    // brings it back to |0>... verify via the full sequence.
    Rng rng(6);
    for (int i = 0; i < 50; i++) {
        StabilizerState s(1);
        s.applyH(0);
        s.applyS(0);
        s.applySdg(0);
        s.applyH(0);
        EXPECT_FALSE(s.measure(0, rng));
    }
}

TEST(Stabilizer, SxMatchesDefinition)
{
    // SX^2 = X: |0> -SX-SX-> |1>.
    Rng rng(7);
    StabilizerState s(1);
    s.applySX(0);
    s.applySX(0);
    EXPECT_TRUE(s.measure(0, rng));

    StabilizerState t(1);
    t.applySX(0);
    t.applySXdg(0);
    EXPECT_FALSE(t.measure(0, rng));
}

TEST(Stabilizer, WideRegistersWork)
{
    // 100-qubit GHZ: the Table 2 scalability case.
    Rng rng(8);
    StabilizerState s(100);
    s.applyH(0);
    for (int q = 0; q + 1 < 100; q++)
        s.applyCX(q, q + 1);
    const bool first = s.measure(0, rng);
    for (int q = 1; q < 100; q++)
        EXPECT_EQ(s.measure(q, rng), first);
}

TEST(Stabilizer, RejectsNonCliffordGate)
{
    StabilizerState s(1);
    EXPECT_THROW(s.applyGate({GateType::RZ, {0}, {0.3}}), UsageError);
}

// ----------------------------------------- statevector <-> stabilizer

namespace
{

/** Random Clifford circuit over n qubits with terminal measurement. */
Circuit
randomCliffordCircuit(int n, int depth, Rng &rng)
{
    Circuit c(n);
    for (int layer = 0; layer < depth; layer++) {
        const int choice = static_cast<int>(rng.uniformInt(7));
        const auto q =
            static_cast<QubitId>(rng.uniformInt(
                static_cast<uint64_t>(n)));
        switch (choice) {
          case 0: c.h(q); break;
          case 1: c.s(q); break;
          case 2: c.x(q); break;
          case 3: c.sx(q); break;
          case 4: c.sdg(q); break;
          case 5: c.z(q); break;
          default: {
            auto q2 = static_cast<QubitId>(
                rng.uniformInt(static_cast<uint64_t>(n)));
            if (q2 == q)
                q2 = (q + 1) % n;
            c.cx(q, q2);
            break;
          }
        }
    }
    c.measureAll();
    return c;
}

} // namespace

/** Property test: tableau sampling agrees with the exact dense
 *  distribution on random Clifford circuits. */
class CliffordAgreementTest : public ::testing::TestWithParam<int>
{
};

TEST_P(CliffordAgreementTest, SampledMatchesExact)
{
    Rng rng(9000 + GetParam());
    const Circuit c = randomCliffordCircuit(4, 40, rng);
    const Distribution exact = idealDistribution(c);
    Rng sample_rng(77 + GetParam());
    const Distribution sampled = cliffordSample(c, 6000, sample_rng);
    EXPECT_LT(tvDistance(exact, sampled), 0.06);
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, CliffordAgreementTest,
                         ::testing::Range(0, 12));

TEST(CliffordSample, RejectsNonClifford)
{
    Circuit c(1);
    c.t(0);
    c.measureAll();
    Rng rng(1);
    EXPECT_THROW(cliffordSample(c, 10, rng), UsageError);
}

TEST(CliffordSample, HandlesCliffordRotations)
{
    Circuit c(2);
    c.rz(kPi / 2.0, 0);
    c.rx(kPi, 0);
    c.ry(kPi / 2.0, 1);
    c.measureAll();
    const Distribution exact = idealDistribution(c);
    Rng rng(11);
    const Distribution sampled = cliffordSample(c, 4000, rng);
    EXPECT_LT(tvDistance(exact, sampled), 0.06);
}

// ------------------------------------------- tableau property tests

namespace
{

/** Drive a tableau into a random stabilizer state. */
void
randomizeTableau(StabilizerState &s, int gates, Rng &rng)
{
    const int n = s.numQubits();
    for (int i = 0; i < gates; i++) {
        const auto q = static_cast<QubitId>(
            rng.uniformInt(static_cast<uint64_t>(n)));
        switch (rng.uniformInt(6)) {
          case 0: s.applyH(q); break;
          case 1: s.applyS(q); break;
          case 2: s.applyX(q); break;
          case 3: s.applySX(q); break;
          case 4: s.applySdg(q); break;
          default: {
            if (n < 2)
                break;
            auto q2 = static_cast<QubitId>(
                rng.uniformInt(static_cast<uint64_t>(n)));
            if (q2 == q)
                q2 = (q + 1) % n;
            s.applyCX(q, q2);
            break;
          }
        }
    }
}

} // namespace

/** Generator identities must hold exactly at the representation
 *  level on random tableaus, including wide multi-word registers. */
class TableauIdentityTest : public ::testing::TestWithParam<int>
{
  protected:
    /** Widths cross the 64-qubit word boundary on the last cases. */
    int
    width() const
    {
        const int widths[] = {1, 2, 5, 8, 64, 65, 100};
        return widths[GetParam() % 7];
    }

    StabilizerState
    randomState() const
    {
        StabilizerState s(width());
        Rng rng(4200 + GetParam());
        randomizeTableau(s, 40 + 8 * width(), rng);
        return s;
    }
};

TEST_P(TableauIdentityTest, HTwiceIsIdentity)
{
    StabilizerState s = randomState();
    const StabilizerState reference = s;
    const QubitId q = width() - 1; // last qubit: top word
    s.applyH(q);
    EXPECT_FALSE(s == reference);
    s.applyH(q);
    EXPECT_TRUE(s == reference);
}

TEST_P(TableauIdentityTest, SFourTimesIsIdentity)
{
    StabilizerState s = randomState();
    const StabilizerState reference = s;
    const QubitId q = width() / 2;
    for (int i = 0; i < 4; i++)
        s.applyS(q);
    EXPECT_TRUE(s == reference);
}

TEST_P(TableauIdentityTest, SdgUndoesSAndSXdgUndoesSX)
{
    StabilizerState s = randomState();
    const StabilizerState reference = s;
    const QubitId q = width() - 1;
    s.applyS(q);
    s.applySdg(q);
    EXPECT_TRUE(s == reference);
    s.applySX(q);
    s.applySXdg(q);
    EXPECT_TRUE(s == reference);
}

TEST_P(TableauIdentityTest, PauliConjugationThroughCx)
{
    if (width() < 2)
        GTEST_SKIP() << "needs two qubits";
    // CX (X_c ⊗ I) = (X_c ⊗ X_t) CX  and  CX (I ⊗ Z_t) = (Z_c ⊗ Z_t) CX.
    const QubitId c = 0, t = width() - 1; // spans the word boundary
    StabilizerState a = randomState();
    StabilizerState b = a;

    a.applyX(c);
    a.applyCX(c, t);
    b.applyCX(c, t);
    b.applyX(c);
    b.applyX(t);
    EXPECT_TRUE(a == b);

    a.applyZ(t);
    a.applyCX(c, t);
    b.applyCX(c, t);
    b.applyZ(c);
    b.applyZ(t);
    EXPECT_TRUE(a == b);
}

TEST_P(TableauIdentityTest, CzIsSymmetricAndSelfInverse)
{
    if (width() < 2)
        GTEST_SKIP() << "needs two qubits";
    const QubitId p = 0, q = width() - 1;
    StabilizerState a = randomState();
    StabilizerState b = a;
    const StabilizerState reference = a;

    a.applyCZ(p, q);
    b.applyCZ(q, p);
    EXPECT_TRUE(a == b);
    a.applyCZ(p, q);
    EXPECT_TRUE(a == reference);
}

TEST_P(TableauIdentityTest, SwapConjugatesOperands)
{
    if (width() < 2)
        GTEST_SKIP() << "needs two qubits";
    // Swap(a,b) X_a = X_b Swap(a,b), and Swap is self-inverse.
    const QubitId p = 0, q = width() - 1;
    StabilizerState a = randomState();
    StabilizerState b = a;
    const StabilizerState reference = a;

    a.applyX(p);
    a.applySwap(p, q);
    b.applySwap(p, q);
    b.applyX(q);
    EXPECT_TRUE(a == b);

    a.applySwap(p, q); // cancels the first swap, leaving X_p
    a.applyX(p);       // undo
    a.applySwap(p, q);
    a.applySwap(p, q);
    EXPECT_TRUE(a == reference);
}

TEST_P(TableauIdentityTest, IsDeterministicConsistentWithMeasure)
{
    StabilizerState s = randomState();
    Rng rng(77 + GetParam());
    for (QubitId q = 0; q < width(); q++) {
        const bool deterministic = s.isDeterministic(q);
        const double p1 = s.populationOne(q);
        EXPECT_EQ(deterministic, p1 == 0.0 || p1 == 1.0);
        const bool first = s.measure(q, rng);
        if (deterministic)
            EXPECT_EQ(first, p1 == 1.0);
        // After any measurement the qubit is collapsed: repeated
        // measurement is deterministic and repeatable.
        EXPECT_TRUE(s.isDeterministic(q));
        EXPECT_EQ(s.measure(q, rng), first);
        EXPECT_EQ(s.populationOne(q), first ? 1.0 : 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomTableaus, TableauIdentityTest,
                         ::testing::Range(0, 14));

TEST(StabilizerWide, WordBoundaryEntanglement)
{
    // Bell pairs straddling the 64-qubit word boundary must show
    // exact correlations, exercising the multi-word bit packing.
    Rng rng(9);
    for (const auto &[a, b] : std::initializer_list<
             std::pair<QubitId, QubitId>>{{63, 64}, {0, 99}, {62, 65}}) {
        for (int trial = 0; trial < 20; trial++) {
            StabilizerState s(100);
            s.applyH(a);
            s.applyCX(a, b);
            EXPECT_EQ(s.measure(a, rng), s.measure(b, rng));
        }
    }
}

TEST(StabilizerWide, PostselectForcesOutcome)
{
    StabilizerState s(100);
    s.applyH(64);
    s.postselect(64, true);
    Rng rng(10);
    EXPECT_TRUE(s.isDeterministic(64));
    EXPECT_TRUE(s.measure(64, rng));
    // Postselecting the impossible branch of a collapsed qubit throws.
    EXPECT_THROW(s.postselect(64, false), UsageError);
}

TEST(StabilizerWide, ResetRestoresGroundState)
{
    StabilizerState s(70);
    Rng rng(11);
    randomizeTableau(s, 300, rng);
    s.reset();
    EXPECT_TRUE(s == StabilizerState(70));
    for (QubitId q = 0; q < 70; q++)
        EXPECT_EQ(s.populationOne(q), 0.0);
}

// -------------------------------------- non-Clifford angle rejection

TEST(StabilizerRejection, NonQuarterRotationAnglesThrow)
{
    StabilizerState s(1);
    // Regression: near-Clifford angles must throw, never be silently
    // rounded onto the group.
    EXPECT_THROW(s.applyGate({GateType::RZ, {0}, {0.3}}), UsageError);
    EXPECT_THROW(s.applyGate({GateType::RX, {0}, {kPi / 2.0 + 1e-5}}),
                 UsageError);
    EXPECT_THROW(s.applyGate({GateType::RY, {0}, {kPi / 4.0}}),
                 UsageError);
    EXPECT_THROW(s.applyGate({GateType::U1, {0}, {1.0}}), UsageError);
    EXPECT_THROW(
        s.applyGate({GateType::U3, {0}, {kPi / 2.0 + 1e-5, 0.0, 0.0}}),
        UsageError);
    EXPECT_THROW(s.applyGate({GateType::T, {0}}), UsageError);
}

TEST(StabilizerRejection, NonFiniteAnglesThrow)
{
    StabilizerState s(1);
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(s.applyGate({GateType::RZ, {0}, {nan}}), UsageError);
    EXPECT_THROW(s.applyGate({GateType::RX, {0}, {inf}}), UsageError);
    EXPECT_FALSE(isCliffordAngle(nan));
    EXPECT_FALSE(isCliffordAngle(inf));
}

TEST(StabilizerRejection, ExactQuarterTurnsStillApply)
{
    // The rejection must not break legal Clifford rotations.
    Rng rng(12);
    StabilizerState s(1);
    s.applyGate({GateType::RX, {0}, {kPi}});
    EXPECT_TRUE(s.measure(0, rng));
    EXPECT_EQ(cliffordQuarterTurns(-kPi / 2.0), 3);
    EXPECT_EQ(cliffordQuarterTurns(4.0 * kPi), 0);
    // Angles within the documented 1e-9 quarter-turn tolerance count
    // as exact quarter turns.
    EXPECT_EQ(cliffordQuarterTurns(kPi / 2.0 + 1e-12), 1);
}
