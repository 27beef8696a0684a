#include "driver/thread_pool.hh"

#include <algorithm>
#include <exception>
#include <limits>

#include "check/schedule.hh"
#include "common/logging.hh"

namespace sparch
{
namespace driver
{

namespace
{

/** Set for the lifetime of each worker thread to its pool. */
thread_local ThreadPool *t_current_pool = nullptr;

} // namespace

ThreadPool *
ThreadPool::current()
{
    return t_current_pool;
}

unsigned
ThreadPool::hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = hardwareThreads();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.push_back(std::make_unique<Worker>());
    threads_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        // Taking the lock orders the flag against every waiter's
        // predicate check, so no worker sleeps through shutdown.
        // sparch-audit: allow(schedule-point-coverage, the lock only
        // publishes stop_ and every interleaving ends in join below)
        std::lock_guard<std::mutex> lock(sleep_mutex_);
        stop_.store(true);
    }
    wake_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::enqueue(Task task)
{
    SPARCH_ASSERT(!stop_.load(), "submit on a stopped pool");
    const std::size_t slot =
        next_queue_.fetch_add(1) % workers_.size();
    // Count the task before making it stealable: if a worker grabbed
    // and finished it first, the decrements would wrap the counters
    // and break waitIdle()'s accounting. A worker waking in the gap
    // merely retries until the push below lands.
    pending_.fetch_add(1);
    {
        std::lock_guard<std::mutex> lock(sleep_mutex_);
        queued_.fetch_add(1);
    }
    // Widen the counted-but-not-yet-stealable window the comment
    // above describes: a worker waking here must retry, not wrap the
    // counters.
    SPARCH_SCHEDULE_POINT("thread_pool.enqueue.counted");
    {
        std::lock_guard<std::mutex> lock(workers_[slot]->mutex);
        workers_[slot]->tasks.push_front(std::move(task));
    }
    wake_.notify_one();
}

bool
ThreadPool::runOne(unsigned self)
{
    Task task;
    bool found = false;

    {
        Worker &own = *workers_[self];
        std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.tasks.empty()) {
            task = std::move(own.tasks.front());
            own.tasks.pop_front();
            found = true;
        }
    }
    for (std::size_t i = 1; !found && i < workers_.size(); ++i) {
        SPARCH_SCHEDULE_POINT("thread_pool.steal.next_victim");
        Worker &victim = *workers_[(self + i) % workers_.size()];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (!victim.tasks.empty()) {
            task = std::move(victim.tasks.back());
            victim.tasks.pop_back();
            found = true;
        }
    }
    if (!found)
        return false;

    queued_.fetch_sub(1);
    SPARCH_SCHEDULE_POINT("thread_pool.task.start");
    task(); // exceptions land in the task's future
    if (pending_.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(sleep_mutex_);
        idle_.notify_all();
    }
    return true;
}

void
ThreadPool::workerLoop(unsigned self)
{
    t_current_pool = this;
    for (;;) {
        if (runOne(self))
            continue;
        SPARCH_SCHEDULE_POINT("thread_pool.worker.idle");
        std::unique_lock<std::mutex> lock(sleep_mutex_);
        // queued_ > 0 with every deque empty only happens in the
        // short window while a submitter is mid-enqueue; the wait
        // predicate passes and the loop retries runOne().
        wake_.wait(lock, [this] {
            return stop_.load() || queued_.load() > 0;
        });
        if (stop_.load() && queued_.load() == 0)
            return;
    }
}

void
ThreadPool::waitIdle()
{
    // sparch-audit: allow(schedule-point-coverage, pure blocking wait
    // - the predicate re-checks pending_ under the lock and mutates
    // nothing)
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    idle_.wait(lock, [this] { return pending_.load() == 0; });
}

namespace
{

/**
 * One forkJoin call's shared state. Helpers hold it by shared_ptr, so
 * a helper that starts after the join has returned still finds it.
 */
struct JoinGroup
{
    JoinGroup(std::size_t count,
              const std::function<void(std::size_t)> &body)
        : n(count), fn(&body)
    {}

    const std::size_t n;
    /**
     * Dangles once the join returns; only a successful claim calls
     * it, and every index is claimed before the join can return.
     */
    const std::function<void(std::size_t)> *const fn;
    std::atomic<std::size_t> next{0};

    std::mutex mutex;
    std::condition_variable all_done;
    std::size_t finished = 0;
    std::size_t error_index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
};

/** Claim and run the group's next index until none is left. */
void
drain(JoinGroup &group)
{
    for (;;) {
        SPARCH_SCHEDULE_POINT("fork_join.claim");
        const std::size_t i = group.next.fetch_add(1);
        if (i >= group.n)
            return;
        std::exception_ptr error;
        try {
            (*group.fn)(i);
        } catch (...) {
            error = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(group.mutex);
        if (error && i < group.error_index) {
            group.error_index = i;
            group.error = error;
        }
        if (++group.finished == group.n)
            group.all_done.notify_all();
    }
}

} // namespace

void
forkJoin(ThreadPool *pool, std::size_t n,
         const std::function<void(std::size_t)> &fn)
{
    if (pool == nullptr || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    const auto group = std::make_shared<JoinGroup>(n, fn);
    const std::size_t helpers =
        std::min<std::size_t>(n - 1, pool->threadCount());
    for (std::size_t h = 0; h < helpers; ++h)
        pool->submit([group] { drain(*group); });
    drain(*group);

    SPARCH_SCHEDULE_POINT("fork_join.join_wait");
    std::unique_lock<std::mutex> lock(group->mutex);
    group->all_done.wait(lock, [&group] {
        return group->finished == group->n;
    });
    if (group->error)
        std::rethrow_exception(group->error);
}

} // namespace driver
} // namespace sparch
