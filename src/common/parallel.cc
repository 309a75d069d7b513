#include "common/parallel.hh"

#include "common/env.hh"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace adapt
{

int
defaultThreads()
{
    static const int threads = [] {
        const unsigned hw = std::thread::hardware_concurrency();
        const int fallback = hw >= 1 ? static_cast<int>(hw) : 1;
        // Hardened knob parse: garbage, zero/negative, and overflow
        // values warn once and fall back to the hardware count
        // instead of silently serializing (strtol's 0) or wrapping.
        return static_cast<int>(
            envInt("ADAPT_NUM_THREADS", fallback, 1, 1 << 16));
    }();
    return threads;
}

int
resolveThreads(int requested)
{
    return requested >= 1 ? requested : defaultThreads();
}

namespace
{

/**
 * The tasks of one Pool::run() call.  It lives on the submitting
 * thread's stack until every task has finished; everything but the
 * constant members is guarded by the pool mutex.
 */
struct Batch
{
    Batch(const std::function<void(int)> &fn, int n, Batch *outer)
        : task(fn), size(n), parent(outer), pending(n)
    {
    }

    const std::function<void(int)> &task;
    const int size;
    /** Batch whose task the submitting thread was running (null for a
     *  call from outside any task).  Every ancestor of an unfinished
     *  batch is itself unfinished, so the chain stays valid. */
    Batch *const parent;
    int next = 0;    //!< first unclaimed task
    int pending;     //!< tasks not yet finished
    std::exception_ptr error; //!< first exception a task threw
    /** The owner sleeps here; signalled when the batch finishes or a
     *  batch nested under it opens. */
    std::condition_variable wake;

    bool
    nestedUnder(const Batch &ancestor) const
    {
        for (const Batch *b = parent; b != nullptr; b = b->parent) {
            if (b == &ancestor)
                return true;
        }
        return false;
    }
};

/** Innermost batch whose task this thread is running. */
thread_local Batch *tl_current = nullptr;

/**
 * Fixed set of worker threads that, together with the threads calling
 * run(), execute indexed task batches.
 *
 * Every batch with unclaimed tasks sits in one list under one mutex.
 * Idle workers claim from the newest such batch.  A caller first
 * claims its own tasks, then helps only with batches nested under its
 * own: those must finish before its batch can, so helping never
 * delays its return, whereas an unrelated batch could.
 */
class Pool
{
  public:
    /** @param threads Executors including the caller: threads - 1
     *  workers are spawned. */
    explicit Pool(int threads)
    {
        const int workers = std::max(threads, 1) - 1;
        workers_.reserve(static_cast<size_t>(workers));
        for (int i = 0; i < workers; i++)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        workReady_.notify_all();
        for (std::thread &worker : workers_)
            worker.join();
    }

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    /** Run task(0..n-1), n >= 1, and return once all have finished,
     *  rethrowing the first exception a task threw. */
    void
    run(int n, const std::function<void(int)> &task)
    {
        if (n == 1 || workers_.empty()) {
            // Nothing to share: run inline and pay no wake.
            for (int i = 0; i < n; i++)
                task(i);
            return;
        }

        Batch batch(task, n, tl_current);
        std::unique_lock<std::mutex> lock(mutex_);
        open_.push_back(&batch);
        lock.unlock();
        // This thread runs one task itself; waiting owners of the
        // enclosing batches may help with the rest.
        const int helpers =
            std::min(n - 1, static_cast<int>(workers_.size()));
        for (int i = 0; i < helpers; i++)
            workReady_.notify_one();
        for (Batch *b = batch.parent; b != nullptr; b = b->parent)
            b->wake.notify_one();

        lock.lock();
        for (;;) {
            if (batch.next < batch.size) {
                claimAndRun(batch, lock);
            } else if (batch.pending == 0) {
                break;
            } else if (Batch *nested = newestNestedUnder(batch)) {
                claimAndRun(*nested, lock);
            } else {
                batch.wake.wait(lock);
            }
        }
        if (batch.error)
            std::rethrow_exception(batch.error);
    }

  private:
    /** Claim @p b's next task and run it with the lock released.
     *  Called, and returns, with @p lock held. */
    void
    claimAndRun(Batch &b, std::unique_lock<std::mutex> &lock)
    {
        const int i = b.next++;
        if (b.next == b.size)
            open_.erase(std::find(open_.begin(), open_.end(), &b));
        Batch *const outer = std::exchange(tl_current, &b);
        lock.unlock();
        std::exception_ptr error;
        try {
            b.task(i);
        } catch (...) {
            error = std::current_exception();
        }
        tl_current = outer;
        lock.lock();
        if (error && !b.error)
            b.error = error;
        // Signal under the lock: the owner may destroy b once it
        // can take the lock and see pending == 0.
        if (--b.pending == 0)
            b.wake.notify_one();
    }

    Batch *
    newestNestedUnder(const Batch &b) const
    {
        for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
            if ((*it)->nestedUnder(b))
                return *it;
        }
        return nullptr;
    }

    void
    workerLoop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            workReady_.wait(lock,
                            [&] { return stopping_ || !open_.empty(); });
            if (stopping_)
                return;
            claimAndRun(*open_.back(), lock);
        }
    }

    std::mutex mutex_;
    std::condition_variable workReady_;
    std::vector<Batch *> open_; //!< batches with unclaimed tasks, oldest first
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

Pool &
globalPool()
{
    static Pool pool(defaultThreads());
    return pool;
}

} // namespace

void
parallelFor(int64_t begin, int64_t end, int max_chunks,
            const std::function<void(int64_t, int64_t, int)> &body)
{
    const int64_t n = end - begin;
    if (n <= 0)
        return;
    const int chunks = static_cast<int>(
        std::min<int64_t>(resolveThreads(max_chunks), n));
    const int64_t base = n / chunks;
    const int64_t extra = n % chunks;
    globalPool().run(chunks, [&](int c) {
        const int64_t lo =
            begin + c * base + std::min<int64_t>(c, extra);
        const int64_t hi = lo + base + (c < extra ? 1 : 0);
        body(lo, hi, c);
    });
}

} // namespace adapt
