#include "sim/statevector.hh"

#include <algorithm>
#include <cmath>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/flat_accumulator.hh"
#include "common/logging.hh"
#include "sim/dense_kernels.hh"

namespace adapt
{

namespace
{

/** Largest register the dense simulator will allocate (16 GiB). */
constexpr int kMaxDenseQubits = 26;

/**
 * Visit every basis index with @p bit set, in ascending order.
 *
 * Indices with a given bit set form dim/2 contiguous runs of length
 * bit; iterating the runs directly touches exactly the indices the
 * kernel needs instead of branching on all 2^n of them.
 */
template <typename Fn>
inline void
forEachSet(uint64_t dim, uint64_t bit, Fn &&fn)
{
    for (uint64_t base = bit; base < dim; base += 2 * bit) {
        for (uint64_t i = base; i < base + bit; i++)
            fn(i);
    }
}

/** Visit every basis index with @p bit clear, in ascending order. */
template <typename Fn>
inline void
forEachClear(uint64_t dim, uint64_t bit, Fn &&fn)
{
    for (uint64_t base = 0; base < dim; base += 2 * bit) {
        for (uint64_t i = base; i < base + bit; i++)
            fn(i);
    }
}

/** Visit every basis index with both @p abit and @p bbit set. */
template <typename Fn>
inline void
forEachBothSet(uint64_t dim, uint64_t abit, uint64_t bbit, Fn &&fn)
{
    const uint64_t hi = std::max(abit, bbit);
    const uint64_t lo = std::min(abit, bbit);
    for (uint64_t a = hi; a < dim; a += 2 * hi) {
        for (uint64_t b = lo; b < hi; b += 2 * lo) {
            for (uint64_t i = 0; i < lo; i++)
                fn(a + b + i);
        }
    }
}

/** Visit every basis index with @p set_bit set and @p clear_bit
 *  clear (the canonical member of each two-qubit swap pair). */
template <typename Fn>
inline void
forEachSetClear(uint64_t dim, uint64_t set_bit, uint64_t clear_bit,
                Fn &&fn)
{
    const uint64_t hi = std::max(set_bit, clear_bit);
    const uint64_t lo = std::min(set_bit, clear_bit);
    const uint64_t a0 = set_bit > clear_bit ? hi : 0;
    const uint64_t b0 = set_bit > clear_bit ? 0 : lo;
    for (uint64_t a = a0; a < dim; a += 2 * hi) {
        for (uint64_t b = b0; b < hi; b += 2 * lo) {
            for (uint64_t i = 0; i < lo; i++)
                fn(a + b + i);
        }
    }
}

// ------------------------------------------------------------------
// Scalar kernel bodies: the only ones off x86, and the reference the
// AVX2 bodies are tested against.
// ------------------------------------------------------------------

/**
 * Squared-magnitude sums in the lane order of one AVX2 register
 * holding two amplitudes: the real and imaginary squares of
 * even-index amplitudes, then of odd-index ones.  Every reduction
 * body, scalar or AVX2, accumulates in this order and folds it the
 * same way, so all of them round identically.
 */
struct SquareSums
{
    double evenRe = 0.0, evenIm = 0.0, oddRe = 0.0, oddIm = 0.0;

    void
    addEven(Complex a)
    {
        evenRe += a.real() * a.real();
        evenIm += a.imag() * a.imag();
    }

    void
    addOdd(Complex a)
    {
        oddRe += a.real() * a.real();
        oddIm += a.imag() * a.imag();
    }

    /** An even-index amplitude and its odd neighbour. */
    void
    addPair(const Complex *a)
    {
        addEven(a[0]);
        addOdd(a[1]);
    }

    double fold() const { return ((evenRe + evenIm) + oddRe) + oddIm; }
};

void
apply1QScalar(Complex *amps, uint64_t dim, const Matrix2 &u, QubitId q)
{
    const Complex u00 = u(0, 0), u01 = u(0, 1);
    const Complex u10 = u(1, 0), u11 = u(1, 1);
    if (q == 0) {
        // Stride-1 specialization: amplitude pairs are adjacent, so
        // the whole state streams through in one sequential pass.
        for (uint64_t i = 0; i < dim; i += 2) {
            const Complex a0 = amps[i];
            const Complex a1 = amps[i + 1];
            amps[i] = u00 * a0 + u01 * a1;
            amps[i + 1] = u10 * a0 + u11 * a1;
        }
        return;
    }

    const uint64_t stride = uint64_t{1} << q;
    for (uint64_t base = 0; base < dim; base += 2 * stride) {
        for (uint64_t offset = 0; offset < stride; offset++) {
            const uint64_t i0 = base + offset;
            const uint64_t i1 = i0 + stride;
            const Complex a0 = amps[i0];
            const Complex a1 = amps[i1];
            amps[i0] = u00 * a0 + u01 * a1;
            amps[i1] = u10 * a0 + u11 * a1;
        }
    }
}

void
applyPhaseScalar(Complex *amps, uint64_t dim, QubitId q, Complex factor)
{
    forEachSet(dim, uint64_t{1} << q,
               [&](uint64_t i) { amps[i] *= factor; });
}

double
populationOneScalar(const Complex *amps, uint64_t dim, QubitId q)
{
    const uint64_t bit = uint64_t{1} << q;
    SquareSums sums;
    if (bit == 1) {
        for (uint64_t i = 1; i < dim; i += 2)
            sums.addOdd(amps[i]);
    } else {
        // Set-bit runs start at even indices and have even length.
        for (uint64_t base = bit; base < dim; base += 2 * bit) {
            for (uint64_t i = base; i < base + bit; i += 2)
                sums.addPair(amps + i);
        }
    }
    return sums.fold();
}

double
normSquaredScalar(const Complex *amps, uint64_t dim)
{
    SquareSums sums;
    for (uint64_t i = 0; i < dim; i += 2)
        sums.addPair(amps + i);
    return sums.fold();
}

void
scaleScalar(Complex *amps, uint64_t dim, double s)
{
    for (uint64_t i = 0; i < dim; i++)
        amps[i] *= s;
}

constexpr detail::DenseKernels kScalarKernels = {
    .isa = "scalar",
    .apply1Q = apply1QScalar,
    .applyPhase = applyPhaseScalar,
    .populationOne = populationOneScalar,
    .normSquared = normSquaredScalar,
    .scale = scaleScalar,
};

#if defined(__x86_64__) || defined(__i386__)

// ------------------------------------------------------------------
// AVX2 kernel bodies.  Compiled for AVX2 through the target attribute
// alone (the translation unit stays baseline), and called only after
// cpuHasAvx2().  One 256-bit register holds two complex amplitudes
// [re0 im0 re1 im1]; every 2^n sweep covers whole registers because
// dim >= 2 and all runs below start at even indices.
// ------------------------------------------------------------------

#define ADAPT_AVX2 __attribute__((target("avx2")))

/**
 * Complex product of per-128-bit-lane scalars (re / im pre-splatted)
 * with a vector of two packed complex doubles [re0 im0 re1 im1].
 *
 * Performs exactly the operations of the scalar std::complex formula
 * — two products per component, one subtract for the real part, one
 * add for the imaginary part (via vaddsubpd) — with the same
 * roundings, and deliberately no FMA: results stay bit-identical to
 * the scalar bodies.
 */
ADAPT_AVX2 inline __m256d
cmulLanes(__m256d s_re, __m256d s_im, __m256d v)
{
    const __m256d swapped = _mm256_permute_pd(v, 0b0101);
    return _mm256_addsub_pd(_mm256_mul_pd(s_re, v),
                            _mm256_mul_pd(s_im, swapped));
}

/** SquareSums::fold over the four lanes of @p acc. */
ADAPT_AVX2 inline double
foldLanes(__m256d acc)
{
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    return SquareSums{lanes[0], lanes[1], lanes[2], lanes[3]}.fold();
}

ADAPT_AVX2 void
apply1QAvx2(Complex *amps, uint64_t dim, const Matrix2 &u, QubitId q)
{
    const Complex u00 = u(0, 0), u01 = u(0, 1);
    const Complex u10 = u(1, 0), u11 = u(1, 1);
    auto *d = reinterpret_cast<double *>(amps);
    if (q == 0) {
        // Stride-1: one 256-bit vector holds an adjacent (a0, a1)
        // pair; the low lane produces u00*a0 + u01*a1 and the high
        // lane u10*a0 + u11*a1 in a single streaming pass.
        const __m256d c0re = _mm256_setr_pd(u00.real(), u00.real(),
                                            u10.real(), u10.real());
        const __m256d c0im = _mm256_setr_pd(u00.imag(), u00.imag(),
                                            u10.imag(), u10.imag());
        const __m256d c1re = _mm256_setr_pd(u01.real(), u01.real(),
                                            u11.real(), u11.real());
        const __m256d c1im = _mm256_setr_pd(u01.imag(), u01.imag(),
                                            u11.imag(), u11.imag());
        for (uint64_t i = 0; i < dim; i += 2) {
            const __m256d v = _mm256_loadu_pd(d + 2 * i);
            const __m256d a0 = _mm256_permute2f128_pd(v, v, 0x00);
            const __m256d a1 = _mm256_permute2f128_pd(v, v, 0x11);
            const __m256d r =
                _mm256_add_pd(cmulLanes(c0re, c0im, a0),
                              cmulLanes(c1re, c1im, a1));
            _mm256_storeu_pd(d + 2 * i, r);
        }
        return;
    }
    // Strided (q >= 1): the paired amplitudes sit stride apart and
    // each contiguous offset run is at least two complex wide, so
    // both loads stay full vectors.
    const uint64_t stride = uint64_t{1} << q;
    const __m256d w00re = _mm256_set1_pd(u00.real());
    const __m256d w00im = _mm256_set1_pd(u00.imag());
    const __m256d w01re = _mm256_set1_pd(u01.real());
    const __m256d w01im = _mm256_set1_pd(u01.imag());
    const __m256d w10re = _mm256_set1_pd(u10.real());
    const __m256d w10im = _mm256_set1_pd(u10.imag());
    const __m256d w11re = _mm256_set1_pd(u11.real());
    const __m256d w11im = _mm256_set1_pd(u11.imag());
    for (uint64_t base = 0; base < dim; base += 2 * stride) {
        for (uint64_t offset = 0; offset < stride; offset += 2) {
            const uint64_t i0 = base + offset;
            const uint64_t i1 = i0 + stride;
            const __m256d va = _mm256_loadu_pd(d + 2 * i0);
            const __m256d vb = _mm256_loadu_pd(d + 2 * i1);
            const __m256d ra =
                _mm256_add_pd(cmulLanes(w00re, w00im, va),
                              cmulLanes(w01re, w01im, vb));
            const __m256d rb =
                _mm256_add_pd(cmulLanes(w10re, w10im, va),
                              cmulLanes(w11re, w11im, vb));
            _mm256_storeu_pd(d + 2 * i0, ra);
            _mm256_storeu_pd(d + 2 * i1, rb);
        }
    }
}

ADAPT_AVX2 void
applyPhaseAvx2(Complex *amps, uint64_t dim, QubitId q, Complex factor)
{
    auto *d = reinterpret_cast<double *>(amps);
    const uint64_t bit = uint64_t{1} << q;
    const __m256d fre = _mm256_set1_pd(factor.real());
    const __m256d fim = _mm256_set1_pd(factor.imag());
    if (bit == 1) {
        // Odd amplitudes only: rotate both lanes, keep the even one.
        for (uint64_t i = 0; i < dim; i += 2) {
            const __m256d v = _mm256_loadu_pd(d + 2 * i);
            const __m256d p = cmulLanes(fre, fim, v);
            _mm256_storeu_pd(d + 2 * i,
                             _mm256_blend_pd(v, p, 0b1100));
        }
        return;
    }
    // Set-bit indices form contiguous runs of length bit >= 2.
    for (uint64_t base = bit; base < dim; base += 2 * bit) {
        for (uint64_t i = base; i < base + bit; i += 2) {
            const __m256d v = _mm256_loadu_pd(d + 2 * i);
            _mm256_storeu_pd(d + 2 * i, cmulLanes(fre, fim, v));
        }
    }
}

ADAPT_AVX2 double
populationOneAvx2(const Complex *amps, uint64_t dim, QubitId q)
{
    const auto *d = reinterpret_cast<const double *>(amps);
    const uint64_t bit = uint64_t{1} << q;
    __m256d acc = _mm256_setzero_pd();
    if (bit == 1) {
        // Odd amplitudes only: the even lanes add zeros.
        const __m256d zero = _mm256_setzero_pd();
        for (uint64_t i = 0; i < dim; i += 2) {
            const __m256d v = _mm256_loadu_pd(d + 2 * i);
            const __m256d sq = _mm256_mul_pd(v, v);
            acc = _mm256_add_pd(acc,
                                _mm256_blend_pd(zero, sq, 0b1100));
        }
    } else {
        for (uint64_t base = bit; base < dim; base += 2 * bit) {
            for (uint64_t i = base; i < base + bit; i += 2) {
                const __m256d v = _mm256_loadu_pd(d + 2 * i);
                acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
            }
        }
    }
    return foldLanes(acc);
}

ADAPT_AVX2 double
normSquaredAvx2(const Complex *amps, uint64_t dim)
{
    const auto *d = reinterpret_cast<const double *>(amps);
    __m256d acc = _mm256_setzero_pd();
    for (uint64_t i = 0; i < dim; i += 2) {
        const __m256d v = _mm256_loadu_pd(d + 2 * i);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
    }
    return foldLanes(acc);
}

ADAPT_AVX2 void
scaleAvx2(Complex *amps, uint64_t dim, double s)
{
    auto *d = reinterpret_cast<double *>(amps);
    const __m256d vs = _mm256_set1_pd(s);
    for (uint64_t i = 0; i < dim; i += 2) {
        _mm256_storeu_pd(d + 2 * i,
                         _mm256_mul_pd(_mm256_loadu_pd(d + 2 * i), vs));
    }
}

#undef ADAPT_AVX2

constexpr detail::DenseKernels kAvx2Kernels = {
    .isa = "avx2",
    .apply1Q = apply1QAvx2,
    .applyPhase = applyPhaseAvx2,
    .populationOne = populationOneAvx2,
    .normSquared = normSquaredAvx2,
    .scale = scaleAvx2,
};

#endif // x86

/** The bodies this process runs, chosen on first use.  A
 *  function-local static rather than a namespace-scope one, so the
 *  CPU probe never runs before libgcc's own CPU initialization. */
const detail::DenseKernels &
kernels()
{
    static const detail::DenseKernels &chosen =
        detail::cpuHasAvx2() ? *detail::avx2Kernels()
                             : detail::scalarKernels();
    return chosen;
}

} // namespace

namespace detail
{

const DenseKernels &
scalarKernels()
{
    return kScalarKernels;
}

const DenseKernels *
avx2Kernels()
{
#if defined(__x86_64__) || defined(__i386__)
    return &kAvx2Kernels;
#else
    return nullptr;
#endif
}

bool
cpuHasAvx2()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

} // namespace detail

StateVector::StateVector(int num_qubits)
    : numQubits_(num_qubits),
      pending_(static_cast<size_t>(std::max(num_qubits, 0)))
{
    require(num_qubits > 0, "StateVector requires at least one qubit");
    if (num_qubits > kMaxDenseQubits) {
        fatal("dense simulation beyond " +
              std::to_string(kMaxDenseQubits) +
              " qubits; use the stabilizer simulator");
    }
    amps_.assign(size_t{1} << num_qubits, Complex{});
    amps_[0] = 1.0;
}

void
StateVector::sweepPending(QubitId q)
{
    PendingOp &p = pending_[static_cast<size_t>(q)];
    if (p.kind == Pending::General) {
        cover(q);
        kernels().apply1Q(amps_.data(), liveDim(), p.u, q);
    } else if (q < live_) {
        // A diagonal above the prefix is a global phase and is dropped.
        if (p.u(0, 0) == Complex(1.0))
            kernels().applyPhase(amps_.data(), liveDim(), q, p.u(1, 1));
        else
            kernels().apply1Q(amps_.data(), liveDim(), p.u, q);
    }
    p.kind = Pending::None;
}

void
StateVector::flushAll()
{
    for (QubitId q = 0; q < numQubits_; q++)
        flush(q);
}

void
StateVector::dropPending()
{
    for (PendingOp &p : pending_)
        p.kind = Pending::None;
}

void
StateVector::reset()
{
    std::fill_n(amps_.begin(), liveDim(), Complex{});
    amps_[0] = 1.0;
    live_ = 1;
    dropPending();
}

void
StateVector::setAmplitudes(const Complex *src, size_t count)
{
    require(count == amps_.size(),
            "setAmplitudes count must match the register dimension");
    std::copy(src, src + count, amps_.begin());
    live_ = numQubits_;
    dropPending();
}

Complex
StateVector::amplitude(uint64_t basis)
{
    flushAll();
    return amps_.at(basis);
}

void
StateVector::apply1Q(const Matrix2 &u, QubitId q)
{
    check(q);
    if (eager(q)) {
        flush(q);
        kernels().apply1Q(amps_.data(), liveDim(), u, q);
        return;
    }
    PendingOp &p = pending_[static_cast<size_t>(q)];
    if (p.kind == Pending::General) {
        p.u = u * p.u;
        return;
    }
    const bool diagonal = u(0, 1) == 0.0 && u(1, 0) == 0.0;
    if (diagonal && q >= live_)
        return; // the bit is |0>: only a global phase
    p.u = p.kind == Pending::None ? u : u * p.u;
    p.kind = diagonal ? Pending::Diagonal : Pending::General;
}

void
StateVector::applyPhase(QubitId q, double phi)
{
    check(q);
    PendingOp &p = pending_[static_cast<size_t>(q)];
    if (q >= live_ && p.kind != Pending::General)
        return; // the bit is |0>: no amplitude to rotate
    const Complex factor = std::exp(kImag * phi);
    if (eager(q)) {
        flush(q);
        kernels().applyPhase(amps_.data(), liveDim(), q, factor);
    } else if (p.kind == Pending::None) {
        p.u = {1.0, 0.0, 0.0, factor};
        p.kind = Pending::Diagonal;
    } else {
        // diag(1, factor) * u scales only row 1.
        p.u(1, 0) *= factor;
        p.u(1, 1) *= factor;
    }
}

void
StateVector::applyDecayJump(QubitId q)
{
    check(q);
    flush(q);
    cover(q);
    const uint64_t bit = uint64_t{1} << q;
    forEachSet(liveDim(), bit, [&](uint64_t i) {
        amps_[i & ~bit] = amps_[i];
        amps_[i] = 0.0;
    });
    normalize();
}

void
StateVector::applyCX(QubitId control, QubitId target)
{
    check(control);
    check(target);
    flushGeneral(control);
    flush(target);
    cover(std::max(control, target));
    const uint64_t cbit = uint64_t{1} << control;
    const uint64_t tbit = uint64_t{1} << target;
    // Each swapped pair is visited once via its target=0 member.
    forEachSetClear(liveDim(), cbit, tbit, [&](uint64_t i) {
        std::swap(amps_[i], amps_[i | tbit]);
    });
}

void
StateVector::applyCZ(QubitId a, QubitId b)
{
    check(a);
    check(b);
    flushGeneral(a);
    flushGeneral(b);
    const uint64_t abit = uint64_t{1} << a;
    const uint64_t bbit = uint64_t{1} << b;
    forEachBothSet(liveDim(), abit, bbit,
                   [&](uint64_t i) { amps_[i] = -amps_[i]; });
}

void
StateVector::applySwap(QubitId a, QubitId b)
{
    check(a);
    check(b);
    std::swap(pending_[static_cast<size_t>(a)],
              pending_[static_cast<size_t>(b)]);
    cover(std::max(a, b));
    const uint64_t abit = uint64_t{1} << a;
    const uint64_t bbit = uint64_t{1} << b;
    forEachSetClear(liveDim(), abit, bbit, [&](uint64_t i) {
        std::swap(amps_[i], amps_[(i & ~abit) | bbit]);
    });
}

void
StateVector::applyGate(const Gate &gate)
{
    switch (gate.type) {
      case GateType::CX:
        applyCX(gate.qubits[0], gate.qubits[1]);
        return;
      case GateType::CZ:
        applyCZ(gate.qubits[0], gate.qubits[1]);
        return;
      case GateType::SWAP:
        applySwap(gate.qubits[0], gate.qubits[1]);
        return;
      case GateType::I:
      case GateType::Barrier:
      case GateType::Delay:
        return;
      case GateType::Measure:
        panic("StateVector::applyGate cannot apply Measure");
      default:
        apply1Q(gateMatrix(gate), gate.qubit());
        return;
    }
}

double
StateVector::probability(uint64_t basis)
{
    flushAll();
    return std::norm(amps_.at(basis));
}

std::vector<double>
StateVector::probabilities()
{
    flushAll();
    std::vector<double> probs(amps_.size());
    for (uint64_t i = 0; i < liveDim(); i++)
        probs[i] = std::norm(amps_[i]);
    return probs;
}

double
StateVector::populationOne(QubitId q)
{
    check(q);
    flushGeneral(q);
    return kernels().populationOne(amps_.data(), liveDim(), q);
}

bool
StateVector::measureCollapse(QubitId q, Rng &rng)
{
    const bool outcome = rng.bernoulli(populationOne(q));
    // populationOne flushed a general operator; a diagonal one is a
    // global phase after the collapse.
    pending_[static_cast<size_t>(q)].kind = Pending::None;
    cover(q);
    const uint64_t bit = uint64_t{1} << q;
    auto zero = [&](uint64_t i) { amps_[i] = 0.0; };
    if (outcome)
        forEachClear(liveDim(), bit, zero);
    else
        forEachSet(liveDim(), bit, zero);
    normalize();
    return outcome;
}

bool
StateVector::measureRetire(QubitId q, Rng &rng)
{
    if (q == 0)
        return measureCollapse(q, rng);
    const bool outcome = rng.bernoulli(populationOne(q));
    // As in measureCollapse, q's diagonal operator is dropped; the
    // operators above q shift down with their bits (a bit with none
    // copies only its kind).
    for (auto b = static_cast<size_t>(q); b + 1 < pending_.size(); b++) {
        if (pending_[b + 1].kind == Pending::None)
            pending_[b].kind = Pending::None;
        else
            pending_[b] = pending_[b + 1];
    }
    pending_.back().kind = Pending::None;
    if (q < live_) {
        // With b = 2^q and o the outcome, run k of the kept half,
        // [2kb + ob, 2kb + ob + b), moves to [kb, kb + b) (run 0 of the
        // |0> half is already in place).  Every source starts at or
        // above its destination and past every earlier run's end, so
        // an ascending in-place copy reads each amplitude before any
        // write reaches it.
        const uint64_t bit = uint64_t{1} << q;
        const uint64_t dim = liveDim();
        Complex *amps = amps_.data();
        for (uint64_t src = outcome ? bit : 2 * bit, dst = outcome ? 0 : bit;
             src < dim; src += 2 * bit, dst += bit) {
            for (uint64_t i = 0; i < bit; i++)
                amps[dst + i] = amps[src + i];
        }
        std::fill(amps + dim / 2, amps + dim, Complex{});
        live_--;
    }
    normalize();
    return outcome;
}

void
retireBit(std::vector<int> &sv_bit, QubitId q)
{
    int &gone = sv_bit[static_cast<size_t>(q)];
    if (gone > 0) {
        for (int &b : sv_bit)
            b -= b > gone;
    }
    gone = -1;
}

double
StateVector::norm() const
{
    return std::sqrt(kernels().normSquared(amps_.data(), liveDim()));
}

void
StateVector::normalize()
{
    const double n = norm();
    require(n > 1e-300, "cannot normalize a zero state");
    kernels().scale(amps_.data(), liveDim(), 1.0 / n);
}

const char *
denseKernelIsa()
{
    return kernels().isa;
}

Circuit
restrictToActiveQubits(const Circuit &circuit)
{
    std::vector<int> map(static_cast<size_t>(circuit.numQubits()), -1);
    int next = 0;
    for (const Gate &gate : circuit.gates()) {
        if (gate.type == GateType::Barrier)
            continue;
        for (QubitId q : gate.qubits) {
            if (map[static_cast<size_t>(q)] < 0)
                map[static_cast<size_t>(q)] = next++;
        }
    }
    Circuit out(std::max(next, 1), circuit.numClbits());
    for (const Gate &gate : circuit.gates()) {
        if (gate.type == GateType::Barrier)
            continue;
        Gate mapped = gate;
        for (QubitId &q : mapped.qubits)
            q = map[static_cast<size_t>(q)];
        out.add(std::move(mapped));
    }
    return out;
}

Distribution
idealDistribution(const Circuit &circuit)
{
    const Circuit reduced = restrictToActiveQubits(circuit);
    StateVector state(reduced.numQubits());

    // (measured qubit, classical bit) pairs, applied to the final
    // state; all workloads measure terminally.  Each run of
    // single-qubit gates on a qubit fuses in its pending operator.
    std::vector<std::pair<QubitId, int>> measures;
    for (const Gate &gate : reduced.gates()) {
        if (gate.type == GateType::Measure) {
            measures.emplace_back(gate.qubit(),
                                  gate.clbit < 0
                                      ? static_cast<int>(gate.qubit())
                                      : gate.clbit);
        } else if (isUnitaryGate(gate.type)) {
            state.applyGate(gate);
        }
    }
    require(!measures.empty(),
            "idealDistribution requires at least one Measure gate");

    FlatAccumulator acc(measures.size() <= 16
                            ? size_t{1} << measures.size()
                            : size_t{1} << 16);
    const std::vector<double> probs = state.probabilities();
    for (uint64_t basis = 0; basis < probs.size(); basis++) {
        const double prob = probs[basis];
        if (prob <= 0.0)
            continue;
        uint64_t outcome = 0;
        for (const auto &[q, c] : measures) {
            if (basis & (uint64_t{1} << q))
                outcome |= uint64_t{1} << c;
        }
        acc.add(outcome, prob);
    }
    Distribution dist;
    for (const auto &[outcome, prob] : acc.sortedItems())
        dist.setProbability(outcome, prob);
    return dist;
}

} // namespace adapt
