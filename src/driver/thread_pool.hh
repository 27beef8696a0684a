/**
 * @file
 * Work-stealing thread pool for the batch-simulation driver.
 *
 * Each worker owns a deque: the owner pushes and pops at the front
 * (LIFO, cache-friendly for task trees), idle workers steal from the
 * back of a victim's deque (FIFO, takes the oldest — and for sweep
 * grids typically the largest remaining — unit of work). Submissions
 * from outside the pool are distributed round-robin. Tasks are
 * arbitrary callables; results and exceptions travel through
 * std::future, so a simulation that throws FatalError surfaces in the
 * caller, not in a worker.
 *
 * Batch tasks here are whole SpGEMM simulations (milliseconds to
 * seconds each), so queue operations are mutex-guarded per worker
 * rather than lock-free: contention is unmeasurable at this grain and
 * the invariants stay obvious.
 *
 * A task can split itself with forkJoin() on ThreadPool::current(),
 * the pool it is running on: a sharded grid point fans its row blocks
 * across the sweep's own workers instead of starting a second pool.
 */

#ifndef SPARCH_DRIVER_THREAD_POOL_HH
#define SPARCH_DRIVER_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace sparch
{
namespace driver
{

/** Fixed-size pool of worker threads with per-worker stealing deques. */
class ThreadPool
{
  public:
    /** Spawn `threads` workers; 0 means hardwareThreads(). */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains every queued task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue a callable; its return value (or exception) is delivered
     * through the returned future.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using Result = std::invoke_result_t<std::decay_t<F>>;
        std::packaged_task<Result()> task(std::forward<F>(fn));
        std::future<Result> future = task.get_future();
        enqueue(std::packaged_task<void()>(std::move(task)));
        return future;
    }

    /** Block until every submitted task has finished running. */
    void waitIdle();

    /** Number of worker threads. */
    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Detected hardware concurrency, never less than 1. */
    static unsigned hardwareThreads();

    /** The pool whose worker runs the calling thread, else nullptr. */
    static ThreadPool *current();

  private:
    using Task = std::packaged_task<void()>;

    struct Worker
    {
        std::mutex mutex;
        std::deque<Task> tasks;
    };

    void enqueue(Task task);
    bool runOne(unsigned self);
    void workerLoop(unsigned self);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;

    /** Guards the sleep/idle condition variables. */
    std::mutex sleep_mutex_;
    std::condition_variable wake_;
    std::condition_variable idle_;

    /** Tasks enqueued but not yet picked up by a worker. */
    std::atomic<std::size_t> queued_{0};
    /** Tasks submitted but not yet finished (queued + running). */
    std::atomic<std::size_t> pending_{0};
    std::atomic<std::size_t> next_queue_{0};
    std::atomic<bool> stop_{false};
};

/**
 * Run fn(0) .. fn(n - 1) as one fork-join group and return once every
 * call has finished.
 *
 * n - 1 helper tasks (at most one per worker) are queued on `pool`;
 * the calling thread and the helpers claim indices in ascending
 * order, each running the next unclaimed one. The caller then waits
 * only for indices other workers already claimed, which are running:
 * it never runs unrelated queued tasks, so a long neighbouring task
 * cannot delay the join, and a group nested inside another cannot
 * deadlock. A helper that starts after the join has returned finds
 * nothing to claim and never touches fn.
 *
 * If calls throw, the exception of the lowest throwing index is
 * rethrown here after every claimed call has finished. A null pool
 * (or n <= 1) runs a plain serial loop on the calling thread.
 */
void forkJoin(ThreadPool *pool, std::size_t n,
              const std::function<void(std::size_t)> &fn);

} // namespace driver
} // namespace sparch

#endif // SPARCH_DRIVER_THREAD_POOL_HH
