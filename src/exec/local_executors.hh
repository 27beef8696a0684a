/**
 * @file
 * The in-process execution backends: serial and thread-pool.
 *
 * InlineExecutor runs every task on the calling thread in id order —
 * the reference implementation of the determinism contract, and the
 * right choice for debugging (stack traces stay in one thread).
 * ThreadPoolExecutor fans the tasks across the repository's
 * work-stealing driver::ThreadPool, where a sharded task also forks
 * its row blocks, and is bit-identical to InlineExecutor by
 * construction: tasks carry their own seeds and records are re-sorted
 * by id.
 */

#ifndef SPARCH_EXEC_LOCAL_EXECUTORS_HH
#define SPARCH_EXEC_LOCAL_EXECUTORS_HH

#include "exec/executor.hh"

namespace sparch
{
namespace exec
{

/** Serial execution on the calling thread. */
class InlineExecutor : public Executor
{
  public:
    const char *name() const override { return "inline"; }

    std::vector<driver::BatchRecord>
    run(const std::vector<const driver::BatchTask *> &tasks,
        const TaskFn &run_task, const RecordFn &on_record,
        std::vector<TaskFailure> &failures) override;
};

/** Parallel execution across the in-process work-stealing pool. */
class ThreadPoolExecutor : public Executor
{
  public:
    /** @param threads Worker threads; 0 means all hardware threads. */
    explicit ThreadPoolExecutor(unsigned threads = 0);

    const char *name() const override { return "threads"; }
    unsigned threads() const { return threads_; }

    std::vector<driver::BatchRecord>
    run(const std::vector<const driver::BatchTask *> &tasks,
        const TaskFn &run_task, const RecordFn &on_record,
        std::vector<TaskFailure> &failures) override;

  private:
    unsigned threads_;
};

} // namespace exec
} // namespace sparch

#endif // SPARCH_EXEC_LOCAL_EXECUTORS_HH
