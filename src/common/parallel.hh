/**
 * @file
 * Shot-level parallelism utilities: a process-wide thread pool behind a
 * deterministically chunked parallel-for.
 *
 * The Monte-Carlo engine forks an independent RNG stream per shot, so
 * shots (and whole workloads) are embarrassingly parallel.  The only
 * subtlety is determinism: parallelFor() always partitions an index
 * range into chunks whose boundaries depend only on the range and the
 * requested chunk count — never on scheduling — so callers that keep
 * one accumulator per chunk and merge them in chunk order produce
 * bit-identical results for any pool size, including serial runs.
 *
 * Parallel regions nest.  A parallelFor() issued from inside a chunk
 * (evaluateSuite over workloads, each running candidate batches, each
 * running parallel shots) publishes its chunks to the same pool, where
 * idle threads pick them up; so does a call from a second thread
 * outside the pool.  A caller whose chunks are all taken helps with
 * work nested under its own call until they finish, so nesting never
 * deadlocks and never oversubscribes the pool.
 */

#ifndef ADAPT_COMMON_PARALLEL_HH
#define ADAPT_COMMON_PARALLEL_HH

#include <cstdint>
#include <functional>

namespace adapt
{

/**
 * Worker count the process uses when a caller asks for "auto":
 * the ADAPT_NUM_THREADS environment variable if set to a positive
 * integer, otherwise std::thread::hardware_concurrency() (at least 1).
 */
int defaultThreads();

/** Map a user thread count to an effective one: values >= 1 are taken
 *  verbatim, anything else (0, negative) means defaultThreads(). */
int resolveThreads(int requested);

/**
 * Chunked parallel loop over [begin, end).
 *
 * The range is split into min(max_chunks, end - begin) contiguous
 * chunks of near-equal size and body(chunk_begin, chunk_end,
 * chunk_index) runs for each on the process pool of defaultThreads()
 * executors (the calling thread is one of them), returning once every
 * chunk has finished.  Chunk boundaries are a pure function of
 * (begin, end, max_chunks): per-chunk accumulators merged in
 * chunk-index order therefore yield identical results for every pool
 * size.  Which thread runs a chunk is unspecified.  The first
 * exception thrown by a chunk propagates to the caller.  May be
 * called from inside a chunk and from any thread.
 *
 * @param max_chunks Desired parallelism; <= 0 means defaultThreads().
 */
void parallelFor(int64_t begin, int64_t end, int max_chunks,
                 const std::function<void(int64_t, int64_t, int)> &body);

} // namespace adapt

#endif // ADAPT_COMMON_PARALLEL_HH
