/**
 * @file
 * The ADAPT DD-mask search (Sec. 4.3).
 *
 * The space of DD masks is 2^N for N program qubits; ADAPT keeps the
 * search tractable with a localized divide-and-conquer: program
 * qubits are grouped into neighbourhoods of (at most) 4, each
 * neighbourhood is searched exhaustively (16 decoy executions) with
 * the bits of already-decided neighbourhoods frozen, and the top two
 * candidates are OR-merged (the paper's conservative estimate).  The
 * total decoy budget is therefore at most 4N executions — linear in
 * the qubit count.
 *
 * The 2^k candidates of a neighbourhood are independent given the
 * frozen bits, so each neighbourhood is submitted as one
 * NoisyMachine::runBatch job batch: the variants execute across the
 * process thread pool (the search never leaves the process) while
 * the sequential dependence between neighbourhoods is preserved.
 * Per-candidate seeds follow the same derivation as the historical
 * serial loop, so masks and fidelities are bit-identical at any
 * thread count.
 */

#ifndef ADAPT_ADAPT_SEARCH_HH
#define ADAPT_ADAPT_SEARCH_HH

#include <cstdint>
#include <vector>

#include "adapt/decoy.hh"
#include "dd/sequences.hh"
#include "noise/machine.hh"
#include "transpile/transpiler.hh"

namespace adapt
{

/** ADAPT search configuration. */
struct AdaptOptions
{
    /** DD protocol / insertion knobs used for candidates and the
     *  final program. */
    DDOptions dd;

    /** Decoy construction. */
    DecoyOptions decoy;

    /** Neighbourhood width (paper default: 4). */
    int neighborhoodSize = 4;

    /** Shots per decoy execution on the machine. */
    int decoyShots = 2000;

    /** OR-merge the top-2 masks per neighbourhood (Sec. 4.3). */
    bool conservativeMerge = true;

    /** Seed for the decoy executions. */
    uint64_t seed = 2021;

    /**
     * Job-level parallelism for the per-neighbourhood decoy batches
     * (NoisyMachine::runBatch); <= 0 (default) uses
     * ADAPT_NUM_THREADS or the hardware concurrency.  The chosen
     * masks and fidelities are bit-identical at any setting.
     */
    int threads = 0;

    /**
     * Simulator backend for decoy (and program) executions.  Auto
     * routes all-Clifford decoys with Pauli-expressible noise to the
     * stabilizer fast path — the Sec. 4.2 scalability argument —
     * and falls back to dense otherwise.
     */
    BackendKind backend = BackendKind::Auto;
};

/** Search outcome. */
struct AdaptResult
{
    /** Chosen DD mask over *logical* program qubits. */
    std::vector<bool> logicalMask;

    /** Same mask lifted to physical qubits via the initial layout. */
    std::vector<bool> physicalMask;

    /** Number of decoy circuits executed on the machine. */
    int decoysExecuted = 0;

    /**
     * True decoy fidelity of the mask actually returned: the
     * OR-merged candidate of the final neighbourhood, evaluated in
     * that neighbourhood's batch with every frozen bit already at its
     * final value.  (The merge can pick a combo that was not the
     * per-neighbourhood winner, so this is not simply the best
     * fidelity seen during the sweep.)
     */
    double bestDecoyFidelity = 0.0;

    /** The decoy used (for correlation studies). */
    Decoy decoy;
};

/**
 * Lift a logical-qubit mask to a physical-qubit mask using the
 * program's initial layout.
 */
std::vector<bool> liftMask(const CompiledProgram &program,
                           const std::vector<bool> &logical_mask);

/**
 * Run the ADAPT search for @p program on @p machine.
 *
 * Executes decoy variants on the machine and returns the DD mask
 * predicted to maximize program fidelity.
 */
AdaptResult adaptSearch(const CompiledProgram &program,
                        const NoisyMachine &machine,
                        const AdaptOptions &options = {});

} // namespace adapt

#endif // ADAPT_ADAPT_SEARCH_HH
