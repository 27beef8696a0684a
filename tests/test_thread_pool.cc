/**
 * @file
 * Focused tests for the work-stealing ThreadPool itself (the batch
 * driver's substrate): exception propagation through futures,
 * destruction with work still queued, stealing under skewed task
 * sizes, and forkJoin groups on the running pool. test_batch_runner.cc
 * covers the pool only incidentally; these pin the contracts the
 * executors and the sharded simulator lean on.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <latch>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "driver/batch_runner.hh"
#include "driver/thread_pool.hh"
#include "exec/local_executors.hh"

namespace sparch
{
namespace
{

using driver::forkJoin;
using driver::ThreadPool;

TEST(ThreadPoolContract, ExceptionKeepsTypeAndMessage)
{
    ThreadPool pool(2);
    auto future = pool.submit(
        []() -> int { throw std::runtime_error("kaboom-42"); });
    try {
        future.get();
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "kaboom-42");
    }

    // A throwing task must not poison its worker: the pool still
    // executes later submissions.
    std::vector<std::future<int>> after;
    for (int i = 0; i < 8; ++i)
        after.push_back(pool.submit([i] { return i; }));
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(after[i].get(), i);
}

TEST(ThreadPoolContract, DestructorDrainsQueuedWork)
{
    // The documented contract: the destructor runs every queued task
    // before joining, so no submitted work is lost. Queue far more
    // tasks than workers and destroy immediately.
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i) {
            pool.submit([&ran] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
                ran.fetch_add(1);
            });
        }
    }
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolContract, StealingDrainsABlockedWorkersQueue)
{
    // One task blocks whichever worker picks it up; every other task
    // is distributed round-robin across both workers' deques. The
    // tasks parked in the blocked worker's deque can only finish if
    // the free worker steals them — which must happen well before the
    // blocker is released.
    ThreadPool pool(2);
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::atomic<bool> started{false};

    auto blocker = pool.submit([open, &started] {
        started.store(true);
        open.wait();
    });
    while (!started.load())
        std::this_thread::yield();

    // Skewed sizes: a few of these spin noticeably longer than the
    // rest, so stealing has to rebalance, not just trickle.
    std::vector<std::future<int>> small;
    for (int i = 0; i < 12; ++i) {
        small.push_back(pool.submit([i] {
            volatile int sink = 0;
            const int spin = (i % 3 == 0) ? 20000 : 100;
            for (int s = 0; s < spin; ++s)
                sink = sink + s;
            return i;
        }));
    }
    for (int i = 0; i < 12; ++i) {
        ASSERT_EQ(small[i].wait_for(std::chrono::seconds(30)),
                  std::future_status::ready)
            << "task " << i
            << " starved behind the blocked worker: stealing broken";
        EXPECT_EQ(small[i].get(), i);
    }

    gate.set_value();
    blocker.get();
}

TEST(ThreadPoolContract, WaitIdleOnEmptyPoolReturnsImmediately)
{
    ThreadPool pool(2);
    pool.waitIdle(); // nothing queued: must not deadlock
    std::atomic<int> ran{0};
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(ran.load(), 1);
}

// ----------------------------------------------------------- forkJoin

/**
 * The future's value, or end the process: a hung join cannot be
 * cancelled, and waiting out the ctest timeout reports nothing.
 */
template <typename T>
T
getWithin(std::future<T> &future, const char *what)
{
    if (future.wait_for(std::chrono::seconds(30)) !=
        std::future_status::ready) {
        std::fprintf(stderr, "%s: no progress for 30 s\n", what);
        std::_Exit(1);
    }
    return future.get();
}

TEST(ForkJoin, NullPoolIsASerialLoopInOrder)
{
    EXPECT_EQ(ThreadPool::current(), nullptr);
    std::vector<std::size_t> order;
    forkJoin(nullptr, 5, [&order](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ForkJoin, JobsOnTheRunningPoolRunConcurrently)
{
    // Every job waits on one n-latch, so the group finishes only if
    // all n jobs are running at once: the task's own thread and n - 1
    // other workers of the pool it runs on. A job that waits too long
    // throws instead of hanging.
    constexpr std::size_t kJobs = 4;
    ThreadPool pool(kJobs);
    auto group = pool.submit([&pool] {
        EXPECT_EQ(ThreadPool::current(), &pool);
        std::latch all_running(kJobs);
        forkJoin(ThreadPool::current(), kJobs,
                 [&all_running](std::size_t i) {
                     all_running.count_down();
                     const auto deadline =
                         std::chrono::steady_clock::now() +
                         std::chrono::seconds(20);
                     while (!all_running.try_wait()) {
                         if (std::chrono::steady_clock::now() > deadline)
                             throw std::runtime_error(
                                 "job " + std::to_string(i) +
                                 " never saw the others running");
                         std::this_thread::yield();
                     }
                 });
    });
    getWithin(group, "forkJoin concurrency");
}

TEST(ForkJoin, JoinNeverRunsANeighbouringTask)
{
    // The pool's other worker runs a neighbour task that blocks
    // until the join has returned, so the group's helpers stay queued
    // and the joining task must run every index itself. A join that
    // only waited, or that helped with unrelated queued work, would
    // wait on itself.
    ThreadPool pool(2);
    std::promise<void> joined;
    std::shared_future<void> open = joined.get_future().share();
    auto task = pool.submit([&pool, &joined, open] {
        std::atomic<bool> neighbour_running{false};
        pool.submit([open, &neighbour_running] {
            neighbour_running.store(true);
            open.wait();
        });
        while (!neighbour_running.load())
            std::this_thread::yield();
        std::atomic<int> ran{0};
        forkJoin(ThreadPool::current(), 3,
                 [&ran](std::size_t) { ran.fetch_add(1); });
        joined.set_value();
        return ran.load();
    });
    EXPECT_EQ(getWithin(task, "forkJoin beside a blocked neighbour"), 3);
    pool.waitIdle();
}

TEST(ForkJoin, ThrowingShardFailsOnlyItsOwnGridPoint)
{
    // Point 1's shards 2 and 3 throw; the lowest index's message is
    // the point's failure, and the other points complete.
    constexpr std::size_t kPoints = 4, kShards = 4;
    std::vector<driver::BatchTask> tasks(kPoints);
    std::vector<const driver::BatchTask *> pointers;
    for (std::size_t i = 0; i < kPoints; ++i) {
        tasks[i].id = i;
        pointers.push_back(&tasks[i]);
    }
    const exec::Executor::TaskFn run_task =
        [](const driver::BatchTask &task) {
            std::vector<int> done(kShards, 0);
            forkJoin(ThreadPool::current(), kShards,
                     [&task, &done](std::size_t shard) {
                         if (task.id == 1 && shard >= 2)
                             throw std::runtime_error(
                                 "shard " + std::to_string(shard) +
                                 " of point 1 failed");
                         done[shard] = 1;
                     });
            driver::BatchRecord record;
            record.id = task.id;
            for (int d : done)
                record.resultNnz += static_cast<std::size_t>(d);
            return record;
        };

    exec::ThreadPoolExecutor executor(2);
    std::vector<exec::TaskFailure> failures;
    auto sweep = std::async(std::launch::async, [&] {
        return executor.run(pointers, run_task, nullptr, failures);
    });
    const std::vector<driver::BatchRecord> records =
        getWithin(sweep, "forkJoin with a throwing shard");

    ASSERT_EQ(records.size(), kPoints - 1);
    EXPECT_EQ(records[0].id, 0u);
    EXPECT_EQ(records[1].id, 2u);
    EXPECT_EQ(records[2].id, 3u);
    for (const driver::BatchRecord &r : records)
        EXPECT_EQ(r.resultNnz, kShards);
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].id, 1u);
    EXPECT_EQ(failures[0].error, "shard 2 of point 1 failed");
}

TEST(ForkJoin, LateHelperAfterTheJoinFindsNothingToClaim)
{
    // The pool's only worker is blocked, so the group's helper task
    // stays queued and the calling thread runs every index itself.
    // The helper then runs after the join has returned and the body
    // and its captures are gone; it must not call them (ASan flags a
    // use after scope if it does).
    ThreadPool pool(1);
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::atomic<bool> started{false};
    pool.submit([open, &started] {
        started.store(true);
        open.wait();
    });
    while (!started.load())
        std::this_thread::yield();

    int calls = 0;
    {
        const auto ran_on =
            std::make_unique<std::vector<std::thread::id>>(3);
        forkJoin(&pool, 3, [&calls, &ran_on](std::size_t i) {
            ++calls;
            (*ran_on)[i] = std::this_thread::get_id();
        });
        for (const std::thread::id &id : *ran_on)
            EXPECT_EQ(id, std::this_thread::get_id());
    }
    gate.set_value();
    pool.waitIdle();
    EXPECT_EQ(calls, 3);
}

} // namespace
} // namespace sparch
