/**
 * @file
 * The full-register sweeps behind StateVector, one body per
 * instruction set.
 *
 * Every kernel here has a portable scalar body and, on x86, an AVX2
 * body.  StateVector picks one table per process from the CPU it
 * runs on (cpuHasAvx2()), so a portable binary runs the AVX2 sweeps
 * wherever the CPU has them.  The two bodies of a kernel give
 * bit-identical results on every input: the element-wise kernels do
 * the same products and additions (no FMA), and the reductions fold
 * four accumulators in one fixed order — real and imaginary squares
 * of even-index amplitudes, then of odd-index ones, combined as
 * ((a0 + a1) + a2) + a3.
 *
 * Internal to sim/: the equivalence tests and kernel benchmarks
 * include it to reach both bodies; everything else goes through
 * StateVector.
 */

#ifndef ADAPT_SIM_DENSE_KERNELS_HH
#define ADAPT_SIM_DENSE_KERNELS_HH

#include <cstdint>

#include "common/matrix2.hh"
#include "common/types.hh"

namespace adapt::detail
{

/**
 * One body of each kernel.  Every kernel takes the amplitude array and
 * its length @p dim, a power of two >= 2.
 */
struct DenseKernels
{
    /** "avx2" or "scalar". */
    const char *isa;

    /** Apply the unitary @p u to qubit @p q. */
    void (*apply1Q)(Complex *amps, uint64_t dim, const Matrix2 &u,
                    QubitId q);

    /** Multiply every amplitude with qubit @p q set by @p factor. */
    void (*applyPhase)(Complex *amps, uint64_t dim, QubitId q,
                       Complex factor);

    /** Sum of |a_i|^2 over the indices with qubit @p q set. */
    double (*populationOne)(const Complex *amps, uint64_t dim,
                            QubitId q);

    /** Sum of |a_i|^2 over all indices (the squared norm). */
    double (*normSquared)(const Complex *amps, uint64_t dim);

    /** Multiply every amplitude by the real @p s. */
    void (*scale)(Complex *amps, uint64_t dim, double s);
};

/** The portable bodies; the only ones off x86. */
const DenseKernels &scalarKernels();

/** The AVX2 bodies, or nullptr when this is not an x86 build.
 *  @pre cpuHasAvx2() before calling any of them. */
const DenseKernels *avx2Kernels();

/** Whether the CPU (and the OS's saved register state) supports
 *  AVX2.  Probed on every call; StateVector keeps its first answer. */
bool cpuHasAvx2();

} // namespace adapt::detail

#endif // ADAPT_SIM_DENSE_KERNELS_HH
