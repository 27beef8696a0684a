/**
 * @file
 * sparch_trace: the benchmark's traced replay of `sparch sweep` and
 * `sparch convert`.
 *
 * It makes the public calls that src/cli/commands.cc makes for
 * cmdSweep, runSurrogateSweep and cmdConvert, in the same order, and
 * records a span around each call from the outside: name, detail,
 * start, end, parent span and thread. Per-task spans come from
 * TracingExecutor, an exec::Executor decorator around
 * ThreadPoolExecutor. Simulator phase times and module counters are
 * read from each record's StatSet, with profile::setEnabled(true)
 * set in this program only. Spans and counters stay in memory and are
 * written as one TSV file when the process ends; perfbench/run.py
 * turns them into the per-layer metrics.
 *
 * The CSV it writes must be byte-identical to the CLI's for the same
 * flags, which shows it ran the same program; run.py checks that on
 * every traced op.
 *
 *   sparch_trace sweep --grid G --csv OUT --spans F [--cache C]
 *                      [--threads N] [--surrogate [--surrogate-keep K]]
 *   sparch_trace convert IN.mtx OUT.scsr --spans F
 *
 * Spans file, one record per line, tab-separated, times in ns from
 * process start:
 *   span <id> <parent> <thread> <name> <detail> <start> <end>
 *   count <name> <value>
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cli/flags.hh"
#include "cli/spec.hh"
#include "common/logging.hh"
#include "common/profile.hh"
#include "driver/batch_runner.hh"
#include "driver/result_cache.hh"
#include "driver/sharded_simulator.hh"
#include "driver/thread_pool.hh"
#include "dse/pareto.hh"
#include "dse/surrogate.hh"
#include "dse/workload_stats.hh"
#include "exec/local_executors.hh"
#include "matrix/scsr.hh"
#include "matrix/scsr_convert.hh"

namespace
{

using namespace sparch;
using driver::BatchRecord;
using driver::BatchRunner;
using driver::BatchTask;
using driver::ResultCache;
using driver::RunStats;
using Clock = std::chrono::steady_clock;

const Clock::time_point kOrigin = Clock::now();

std::int64_t
sinceOrigin(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                                kOrigin)
        .count();
}

struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    unsigned thread = 0;
    std::string name;
    std::string detail;
    Clock::time_point start;
    Clock::time_point end;
};

/** Process-wide in-memory span and counter store. */
class Tracer
{
  public:
    std::uint64_t
    nextId()
    {
        return next_id_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Dense per-thread index; the first thread to ask gets 0. */
    unsigned
    thread()
    {
        thread_local const unsigned index =
            next_thread_.fetch_add(1, std::memory_order_relaxed);
        return index;
    }

    void
    record(Span span)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(span));
    }

    void
    add(const std::string &name, double value)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        counts_[name] += value;
    }

    void
    max(const std::string &name, double value)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        double &slot = counts_[name];
        slot = std::max(slot, value);
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            fatal("cannot write spans to '", path, "'");
        for (const Span &s : spans_) {
            out << "span\t" << s.id << '\t' << s.parent << '\t'
                << s.thread << '\t' << s.name << '\t'
                << (s.detail.empty() ? "-" : s.detail) << '\t'
                << sinceOrigin(s.start) << '\t' << sinceOrigin(s.end)
                << '\n';
        }
        out.precision(17);
        for (const auto &[name, value] : counts_)
            out << "count\t" << name << '\t' << value << '\n';
    }

  private:
    std::mutex mutex_;
    std::atomic<std::uint64_t> next_id_{1};
    std::atomic<unsigned> next_thread_{0};
    std::vector<Span> spans_;
    std::map<std::string, double> counts_;
};

Tracer tracer;

/** Open spans of the calling thread, innermost last. */
thread_local std::vector<const Span *> t_open;

/** RAII span: parent is the thread's innermost open span unless given. */
class Scope
{
  public:
    explicit Scope(std::string name, std::string detail = {},
                   std::optional<std::uint64_t> parent = std::nullopt)
    {
        span_.id = tracer.nextId();
        span_.parent = parent ? *parent
                              : (t_open.empty() ? 0 : t_open.back()->id);
        span_.thread = tracer.thread();
        span_.name = std::move(name);
        span_.detail = std::move(detail);
        t_open.push_back(&span_);
        span_.start = Clock::now();
    }

    ~Scope()
    {
        span_.end = Clock::now();
        t_open.pop_back();
        tracer.record(std::move(span_));
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint64_t id() const { return span_.id; }

  private:
    Span span_;
};

/** Record a closed span under the calling thread's innermost one. */
void
recordSpan(std::string name, Clock::time_point start,
           Clock::time_point end)
{
    Span span;
    span.id = tracer.nextId();
    span.parent = t_open.empty() ? 0 : t_open.back()->id;
    span.thread = tracer.thread();
    span.name = std::move(name);
    span.start = start;
    span.end = end;
    tracer.record(std::move(span));
}

unsigned
resolveThreads(unsigned requested)
{
    return requested == 0 ? driver::ThreadPool::hardwareThreads()
                          : requested;
}

/** Count a cache file write and the bytes it left on disk. */
void
countSave(const ResultCache &cache)
{
    tracer.add("cache.saves", 1);
    std::error_code ec;
    const auto size = std::filesystem::file_size(cache.path(), ec);
    if (!ec)
        tracer.add("cache.bytes_written", static_cast<double>(size));
}

/** Time ResultCache::save() from outside; count it when it wrote. */
void
tracedSave(ResultCache *cache)
{
    if (cache == nullptr)
        return;
    const bool writes = cache->dirty() && !cache->path().empty();
    Scope span("cache.save");
    cache->save();
    if (writes)
        countSave(*cache);
}

/**
 * BatchRunner::simulateTask's sharded branch, made here so the
 * per-shard results (which the record drops) give shard.busy_s_max.
 * The record it returns is the one simulateTask builds.
 */
BatchRecord
simulateSharded(const BatchTask &task)
{
    BatchRecord record;
    record.id = task.id;
    record.configLabel = task.configLabel;
    record.workloadName = task.workload.name();
    record.seed = task.seed;
    record.shards = task.shards;

    const driver::ShardedSimulator sim(task.config, task.shardPolicy,
                                       task.shards, /*threads=*/1);
    driver::ShardedResult result;
    {
        Scope span("shard.multiply", task.workload.name());
        result =
            sim.multiply(task.workload.left(), task.workload.right());
    }
    double busy_max = 0.0;
    double cycles = 0.0;
    for (const SpArchResult &shard : result.shards) {
        busy_max = std::max(busy_max,
                            shard.stats.get("profile.total_seconds"));
        cycles += static_cast<double>(shard.cycles);
    }
    tracer.max("shard.busy_s_max", busy_max);
    tracer.add("core.simulated_cycles", cycles);

    record.sim = std::move(result.combined);
    record.resultNnz = record.sim.result.nnz();
    record.sim.result = CsrMatrix();
    return record;
}

/**
 * Executor decorator: spans around the whole executor run, each task
 * (on its worker thread), each task's first touch of its operands,
 * and each completion callback (where BatchRunner inserts into the
 * result cache and flushes it).
 */
class TracingExecutor : public exec::Executor
{
  public:
    explicit TracingExecutor(unsigned threads) : inner_(threads)
    {
        tracer.add("exec.threads", threads);
    }

    void setCache(const ResultCache *cache) { cache_ = cache; }

    const char *name() const override { return inner_.name(); }

    std::vector<BatchRecord>
    run(const std::vector<const BatchTask *> &tasks,
        const TaskFn &run_task, const RecordFn &on_record,
        std::vector<exec::TaskFailure> &failures) override
    {
        // BatchRunner::run probes the cache for every task before it
        // hands the misses over: that interval is the lookup.
        recordSpan("cache.lookup", t_open.back()->start, Clock::now());
        Scope span("exec.run");
        const std::uint64_t parent = span.id();
        const TaskFn timed_task = [&](const BatchTask &task) {
            Scope task_span("exec.task", task.workload.name(), parent);
            {
                Scope load("matrix.materialize", task.workload.name());
                task.workload.left();
            }
            if (task.shards > 1)
                return simulateSharded(task);
            BatchRecord record = run_task(task);
            tracer.add("core.simulated_cycles",
                       static_cast<double>(record.sim.cycles));
            return record;
        };
        const RecordFn timed_record = [&](const BatchRecord &record) {
            if (cache_ == nullptr) {
                on_record(record);
                return;
            }
            const Clock::time_point start = Clock::now();
            on_record(record);
            // insert() marks the cache dirty and a flush clears it.
            const bool saved = !cache_->dirty();
            recordSpan(saved ? "cache.save" : "cache.insert", start,
                       Clock::now());
            if (saved)
                countSave(*cache_);
        };
        return inner_.run(tasks, timed_task, timed_record, failures);
    }

  private:
    exec::ThreadPoolExecutor inner_;
    const ResultCache *cache_ = nullptr;
};

/** Stat keys summed over the simulated records of one op. */
const char *const kRecordStats[] = {
    "profile.leaves_seconds",         "profile.plan_seconds",
    "profile.rounds_seconds",         "profile.convert_seconds",
    "multiplier.port_full_stalls",    "multiplier.row_wait_stalls",
    "mata_fetcher.issue_cycles",      "merge_tree.idle_cycles",
    "merge_tree.fifo_pushes",         "row_prefetcher.hits",
    "row_prefetcher.misses",          "row_prefetcher.evictions",
    "row_prefetcher.stall_cycles",    "partial_fetcher.elements_streamed",
    "writer.busy_cycles",             "dram.bytes.read",
    "dram.bytes.write",               "plan.rounds",
    "shard.max_cycles",               "shard.stitch_cycles",
};

void
countRecords(const std::vector<BatchRecord> &records)
{
    for (const BatchRecord &r : records) {
        for (const char *key : kRecordStats)
            tracer.add(std::string("stat.") + key, r.sim.stats.get(key));
        if (r.sim.stats.has("shard.nnz_imbalance"))
            tracer.max("stat.shard.nnz_imbalance",
                       r.sim.stats.get("shard.nnz_imbalance"));
    }
}

/** cmdSweep's emitCsv for a file path, timed. */
void
writeCsv(const std::vector<BatchRecord> &records, const std::string &path)
{
    Scope span("cli.csv_write");
    std::ofstream file(path);
    if (!file)
        fatal("cannot write CSV to '", path, "'");
    BatchRunner::writeCsv(records, file);
}

void
report(const RunStats &stats)
{
    for (const driver::FailedPoint &f : stats.failures) {
        std::cerr << "sparch_trace: point " << f.id << " ("
                  << f.configLabel << " x " << f.workloadName
                  << ") failed: " << f.error << "\n";
    }
    std::cerr << "sparch_trace: " << stats.total()
              << " grid points, simulated=" << stats.simulated
              << ", cache-hits=" << stats.cacheHits
              << ", failed=" << stats.failed << "\n";
    tracer.add("cache.hits", static_cast<double>(stats.cacheHits));
    tracer.add("cache.lookups", static_cast<double>(stats.total()));
}

/** Time opening each .scsr input by itself (a traced-run-only probe). */
void
probeScsrOpen(const cli::GridSpec &grid)
{
    const std::string prefix = "scsr:";
    for (const driver::Workload &w : grid.workloads) {
        if (!w.hasSpec() || w.spec().text.rfind(prefix, 0) != 0)
            continue;
        Scope span("matrix.scsr_open", w.name());
        MappedCsr::open(w.spec().text.substr(prefix.size()));
    }
}

/** runSurrogateSweep's makeSurrogateRecord. */
std::uint64_t
estU64(double value)
{
    return value <= 0.0 ? 0 : static_cast<std::uint64_t>(value + 0.5);
}

BatchRecord
makeSurrogateRecord(const cli::GridSpec &grid,
                    const cli::GridPointRef &ref,
                    const dse::SurrogateEstimate &est)
{
    BatchRecord r;
    r.id = ref.id;
    r.configLabel = grid.configs[ref.configIdx].first;
    r.workloadName = grid.workloads[ref.workloadIdx].name();
    r.seed = BatchRunner::taskSeed(grid.seed, ref.id);
    r.shards = grid.shards[ref.shardIdx];
    r.resultNnz = static_cast<std::size_t>(estU64(est.outputNnz));
    r.tier = "surrogate";
    r.sim.cycles = estU64(est.cycles);
    r.sim.seconds = est.seconds;
    r.sim.flops = estU64(2.0 * est.multiplies);
    r.sim.gflops = est.gflops;
    r.sim.bytesMatA = estU64(est.bytesMatA);
    r.sim.bytesMatB = estU64(est.bytesMatB);
    r.sim.bytesPartialRead = estU64(est.bytesPartialRead);
    r.sim.bytesPartialWrite = estU64(est.bytesPartialWrite);
    r.sim.bytesFinalWrite = estU64(est.bytesFinalWrite);
    r.sim.bytesTotal = estU64(est.bytesTotal);
    r.sim.bandwidthUtilization = est.bandwidthUtilization;
    r.sim.prefetchHitRate = est.prefetchHitRate;
    r.sim.multiplies = estU64(est.multiplies);
    r.sim.additions = estU64(est.additions);
    r.sim.partialMatrices = estU64(est.partialMatrices);
    r.sim.mergeRounds = estU64(est.mergeRounds);
    return r;
}

/** Mean |surrogate - simulated| / simulated over simulated survivors. */
double
meanRelError(const std::vector<BatchRecord> &sim,
             const std::vector<BatchRecord> &surrogate,
             std::uint64_t SpArchResult::*field)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const BatchRecord &r : sim) {
        const auto simulated = static_cast<double>(r.sim.*field);
        if (simulated <= 0.0)
            continue;
        const auto estimate =
            static_cast<double>(surrogate[r.id].sim.*field);
        sum += std::fabs(estimate - simulated) / simulated;
        ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

/** runSurrogateSweep, with spans. */
int
surrogateSweep(const cli::GridSpec &grid, const cli::FlagSet &flags)
{
    const unsigned threads =
        resolveThreads(flags.has("threads")
                           ? flags.getUnsigned("threads", 0)
                           : grid.threads);
    const std::size_t total = cli::gridPointCount(grid);

    const std::string cache_path = flags.get("cache");
    std::optional<dse::WorkloadStatsCache> stats_cache;
    dse::WorkloadStatsSoA soa;
    {
        Scope stats_span("dse.stats");
        {
            Scope span("dse.stats_load");
            stats_cache.emplace(cache_path.empty()
                                    ? std::string{}
                                    : cache_path + ".stats");
        }
        for (const driver::Workload &w : grid.workloads) {
            Scope span("dse.stats_obtain", w.name());
            soa.push(stats_cache->obtain(w));
        }
        Scope span("dse.stats_save");
        stats_cache->save();
    }
    tracer.add("dse.stats_hits", static_cast<double>(stats_cache->hits()));
    tracer.add("dse.stats_computes",
               static_cast<double>(stats_cache->computes()));

    std::vector<dse::SurrogateBatch> batches(grid.configs.size());
    {
        Scope span("dse.surrogate");
        const auto evaluate_config = [&grid, &soa, &batches](
                                         std::size_t c) {
            const dse::SurrogateEvaluator evaluator(
                grid.configs[c].second);
            evaluator.evaluate(soa, batches[c]);
        };
        if (threads > 1 && grid.configs.size() > 1) {
            driver::ThreadPool pool(threads);
            std::vector<std::future<void>> futures;
            futures.reserve(grid.configs.size());
            for (std::size_t c = 0; c < grid.configs.size(); ++c)
                futures.push_back(pool.submit(
                    [&evaluate_config, c] { evaluate_config(c); }));
            for (std::future<void> &f : futures)
                f.get();
        } else {
            for (std::size_t c = 0; c < grid.configs.size(); ++c)
                evaluate_config(c);
        }
    }
    tracer.add("dse.points", static_cast<double>(total));

    std::vector<BatchRecord> surrogate_records;
    std::vector<dse::ParetoPoint> survivors;
    {
        Scope span("dse.pareto");
        const std::size_t groups =
            grid.workloads.size() * grid.shards.size();
        std::vector<dse::ParetoFilter> filters(
            groups,
            dse::ParetoFilter());
        surrogate_records.reserve(total);
        for (std::size_t id = 0; id < total; ++id) {
            const cli::GridPointRef ref = cli::gridPointAt(grid, id);
            const dse::SurrogateEstimate est =
                batches[ref.configIdx].get(ref.workloadIdx);
            filters[ref.workloadIdx * grid.shards.size() +
                    ref.shardIdx]
                .offer(id, {est.cycles, est.energyJ, est.bytesTotal});
            surrogate_records.push_back(
                makeSurrogateRecord(grid, ref, est));
        }
        const std::size_t keep =
            flags.has("surrogate-keep")
                ? static_cast<std::size_t>(
                      flags.getU64("surrogate-keep", 0))
                : std::max<std::size_t>(1, total / 10);
        const std::size_t keep_per_group =
            keep == 0 ? 0 : std::max<std::size_t>(1, keep / groups);
        for (const dse::ParetoFilter &filter : filters)
            for (const dse::ParetoPoint &p :
                 filter.survivors(keep_per_group))
                survivors.push_back(p);
        std::sort(survivors.begin(), survivors.end(),
                  [](const dse::ParetoPoint &a,
                     const dse::ParetoPoint &b) { return a.id < b.id; });
    }
    tracer.add("dse.survivors", static_cast<double>(survivors.size()));

    BatchRunner runner(threads, grid.seed);
    for (const dse::ParetoPoint &p : survivors) {
        const cli::GridPointRef ref = cli::gridPointAt(grid, p.id);
        runner.addWithSeed(grid.configs[ref.configIdx].first,
                           grid.configs[ref.configIdx].second,
                           grid.workloads[ref.workloadIdx],
                           BatchRunner::taskSeed(grid.seed, p.id),
                           grid.shards[ref.shardIdx], grid.policy);
    }

    TracingExecutor executor(threads);
    std::optional<ResultCache> cache;
    {
        Scope span("cache.load");
        cache.emplace(cache_path);
    }
    ResultCache *cache_ptr = flags.has("cache") ? &*cache : nullptr;
    executor.setCache(cache_ptr);
    RunStats stats;
    std::vector<BatchRecord> sim_records;
    {
        Scope span("driver.run");
        sim_records = runner.run(executor, cache_ptr, &stats);
    }
    tracedSave(cache_ptr);
    for (BatchRecord &r : sim_records)
        r.id = survivors[r.id].id;
    for (driver::FailedPoint &f : stats.failures)
        f.id = survivors[f.id].id;
    countRecords(sim_records);

    tracer.add("dse.surrogate_cycles_err",
               meanRelError(sim_records, surrogate_records,
                            &SpArchResult::cycles));
    tracer.add("dse.surrogate_bytes_err",
               meanRelError(sim_records, surrogate_records,
                            &SpArchResult::bytesTotal));

    std::vector<BatchRecord> all_records;
    all_records.reserve(surrogate_records.size() + sim_records.size());
    for (BatchRecord &r : surrogate_records)
        all_records.push_back(std::move(r));
    for (BatchRecord &r : sim_records)
        all_records.push_back(std::move(r));
    writeCsv(all_records, flags.get("csv"));
    report(stats);
    return stats.failed == 0 ? 0 : 3;
}

/** cmdSweep, with spans. Only the thread-pool executor is traced. */
int
sweep(const std::vector<std::string> &args)
{
    const cli::FlagSet flags(args,
                             {"grid", "csv", "cache", "threads",
                              "surrogate-keep", "spans"},
                             {"surrogate"});
    const std::string grid_path = flags.get("grid");
    if (grid_path.empty() || flags.get("csv").empty())
        fatal("sweep: --grid FILE and --csv FILE are required");

    std::optional<cli::GridSpec> grid;
    {
        Scope span("cli.grid_parse");
        grid.emplace(cli::parseGridSpecFile(grid_path));
    }
    const int status = [&] {
        if (flags.has("surrogate"))
            return surrogateSweep(*grid, flags);
        const unsigned threads = resolveThreads(
            flags.has("threads") ? flags.getUnsigned("threads", 0)
                                 : grid->threads);
        BatchRunner runner(threads, grid->seed);
        runner.addShardSweep(grid->configs, grid->workloads,
                             grid->shards, grid->policy);
        TracingExecutor executor(threads);
        std::optional<ResultCache> cache;
        {
            Scope span("cache.load");
            cache.emplace(flags.get("cache"));
        }
        ResultCache *cache_ptr = flags.has("cache") ? &*cache : nullptr;
        executor.setCache(cache_ptr);
        RunStats stats;
        std::vector<BatchRecord> records;
        {
            Scope span("driver.run");
            records = runner.run(executor, cache_ptr, &stats);
        }
        tracedSave(cache_ptr);
        countRecords(records);
        writeCsv(records, flags.get("csv"));
        report(stats);
        return stats.failed == 0 ? 0 : 3;
    }();
    probeScsrOpen(*grid);
    return status;
}

/** cmdConvert at its default options, with spans. */
int
convert(const std::vector<std::string> &args)
{
    const cli::FlagSet flags(args, {"spans"}, {});
    if (flags.positional().size() != 2)
        fatal("convert: expected <in.mtx> <out.scsr>");
    ConvertStats stats;
    {
        Scope span("matrix.convert", flags.positional()[0]);
        stats = convertMatrixMarketToScsr(flags.positional()[0],
                                          flags.positional()[1]);
    }
    tracer.add("matrix.convert_bytes_in",
               static_cast<double>(stats.bytes_in));
    return 0;
}

/** The --spans value, found before the command parses its flags. */
std::string
spansPath(const std::vector<std::string> &args)
{
    for (std::size_t i = 0; i + 1 < args.size(); ++i)
        if (args[i] == "--spans")
            return args[i + 1];
    for (const std::string &a : args)
        if (a.rfind("--spans=", 0) == 0)
            return a.substr(8);
    return {};
}

} // namespace

int
main(int argc, char **argv)
{
    tracer.thread(); // the main thread is thread 0
    const std::vector<std::string> args(argv + 1, argv + argc);
    const std::string spans = spansPath(args);
    profile::setEnabled(true);
    int status = 1;
    try {
        if (args.empty() || spans.empty())
            fatal("usage: sparch_trace sweep|convert ... --spans FILE");
        const std::vector<std::string> rest(args.begin() + 1, args.end());
        {
            Scope root("cli.main", args[0]);
            if (args[0] == "sweep")
                status = sweep(rest);
            else if (args[0] == "convert")
                status = convert(rest);
            else
                fatal("unknown command '", args[0], "'");
        }
        tracer.write(spans);
    } catch (const FatalError &e) {
        std::cerr << "sparch_trace: " << e.what() << "\n";
        return 1;
    } catch (const PanicError &e) {
        std::cerr << "sparch_trace: " << e.what() << "\n";
        return 2;
    }
    return status;
}
