#include "core/multiplier_array.hh"

#include <algorithm>

#include "common/annotations.hh"
#include "common/logging.hh"
#include "core/mata_column_fetcher.hh"
#include "core/row_prefetcher.hh"

namespace sparch
{

MultiplierArray::MultiplierArray(const SpArchConfig &config,
                                 const std::string &name)
    : config_(&config)
{
    const std::string p = name + ".";
    key_multiplies_ = p + "multiplies";
    key_row_wait_stalls_ = p + "row_wait_stalls";
    key_port_full_stalls_ = p + "port_full_stalls";
    key_active_cycles_ = p + "active_cycles";
}

void
MultiplierArray::connect(MataColumnFetcher *fetcher,
                         RowPrefetcher *prefetcher, hw::MergeTree *tree)
{
    fetcher_ = fetcher;
    prefetcher_ = prefetcher;
    tree_ = tree;
}

void
MultiplierArray::startRound(const std::vector<MultTask> *tasks,
                            const CsrMatrix *b,
                            const std::vector<std::vector<
                                std::uint64_t>> *port_queues)
{
    tasks_ = tasks;
    b_ = b;
    port_queues_ = port_queues;
    port_cursor_.assign(port_queues_->size(), 0);
    product_cursor_.assign(port_queues_->size(), 0);
    rr_port_ = 0;
    remaining_ = 0;
    settled_.assign(port_queues_->size());
    waiting_.assign(port_queues_->size());
    wake_at_.assign(port_queues_->size(), 0);
    next_wake_ = RowPrefetcher::kUnknownCycle;
    checked_evictions_ = prefetcher_->evictions();
    for (const auto &q : *port_queues_)
        remaining_ += q.size();

    // Ports with no tasks at all are exhausted immediately. The 64
    // column fetchers drain their ports independently, so one stalled
    // port never blocks the others (Table I: "64 fetchers support 64
    // columns of left matrix").
    for (std::size_t p = 0; p < port_queues_->size(); ++p) {
        if ((*port_queues_)[p].empty())
            tree_->finishLeaf(static_cast<unsigned>(p));
    }
}

bool
MultiplierArray::done() const
{
    return remaining_ == 0;
}

void
MultiplierArray::parkWaiting(unsigned port, std::uint64_t pos)
{
    const Cycle wake = prefetcher_->quietReadyCycle(pos);
    if (wake == RowPrefetcher::kUnknownCycle)
        return;
    waiting_.set(port);
    wake_at_[port] = wake;
    next_wake_ = std::min(next_wake_, wake);
}

void
MultiplierArray::recheck()
{
    const std::uint64_t evictions = prefetcher_->evictions();
    const bool evicted = evictions != checked_evictions_;
    checked_evictions_ = evictions;
    const Cycle now = prefetcher_->now();
    const auto head = [this](std::size_t p) {
        return (*port_queues_)[p][port_cursor_[p]];
    };
    if (evicted) {
        settled_.forEach([&](std::size_t p) {
            if (prefetcher_->quietReadyCycle(head(p)) > now)
                settled_.reset(p);
        });
    } else if (now < next_wake_) {
        return;
    }
    next_wake_ = RowPrefetcher::kUnknownCycle;
    waiting_.forEach([&](std::size_t p) {
        if (evicted)
            wake_at_[p] = prefetcher_->quietReadyCycle(head(p));
        const Cycle wake = wake_at_[p];
        if (wake <= now || wake == RowPrefetcher::kUnknownCycle)
            waiting_.reset(p);
        else
            next_wake_ = std::min(next_wake_, wake);
    });
}

void
MultiplierArray::checkParked()
{
    const Cycle now = prefetcher_->now();
    for (unsigned p = 0; p < port_queues_->size(); ++p) {
        if (!settled_.test(p) && !waiting_.test(p))
            continue;
        SPARCH_DCHECK(fetcher_->headArrived().test(p),
                      "parked port ", p, " has no head");
        const Cycle ready = prefetcher_->quietReadyCycle(
            (*port_queues_)[p][port_cursor_[p]]);
        SPARCH_DCHECK(!settled_.test(p) || ready <= now,
                      "settled port ", p, " row not ready");
        SPARCH_DCHECK(!waiting_.test(p) ||
                          (ready == wake_at_[p] && ready > now),
                      "waiting port ", p, " wait is not quiet");
    }
}

SPARCH_HOT void
MultiplierArray::clockUpdate()
{
    if (tasks_ == nullptr || remaining_ == 0)
        return;
    if (!prefetcher_->windowWarm())
        return;

    const auto n_ports =
        static_cast<unsigned>(port_queues_->size());
    unsigned budget = config_->multipliers;

    // Round-robin over ports; each port consumes its own queue head
    // (in order within the port) when the element has arrived, its
    // right-matrix row is buffered, and the leaf FIFO has space.
    //
    // Only ports whose head has arrived can do anything, and a parked
    // one (see settled_/waiting_) would only count a stall. The scan
    // visits the rest in round-robin order and counts the parked ones
    // it passes. Every other port must be visited: rowReady() is not
    // pure (demand fetches share a per-cycle budget in visit order),
    // so a port may be skipped only if visiting it would have had no
    // side effect.
    const Bitmask &arrived = fetcher_->headArrived();
    const Bitmask &full = tree_->leafFull();
    const auto parked_full = [&](std::size_t w) {
        return settled_.word(w) & full.word(w);
    };
    const auto parked_wait = [&](std::size_t w) {
        return waiting_.word(w);
    };
    const auto visit = [&](std::size_t w) {
        return arrived.word(w) & ~parked_full(w) & ~parked_wait(w);
    };
    recheck();
    if (SPARCH_DCHECK_IS_ON)
        checkParked();
    std::size_t off = 0;
    while (budget > 0) {
        const std::size_t next =
            bitmask::cyclicNext(visit, 0, n_ports, rr_port_, off);
        port_full_stalls_ += bitmask::cyclicCount(
            parked_full, 0, n_ports, rr_port_, off, next);
        row_wait_stalls_ += bitmask::cyclicCount(
            parked_wait, 0, n_ports, rr_port_, off, next);
        if (next == n_ports)
            break;
        off = next;
        const auto p = static_cast<unsigned>((rr_port_ + off) % n_ports);
        auto &cursor = port_cursor_[p];
        const std::uint64_t pos = (*port_queues_)[p][cursor];
        const MultTask &task = (*tasks_)[pos];
        if (!prefetcher_->rowReady(pos)) {
            ++row_wait_stalls_;
            ++off;
            // A demand fetch may have spilled a parked port's row.
            recheck();
            parkWaiting(p, pos);
            continue;
        }
        settled_.set(p);

        auto b_cols = b_->rowCols(task.bRow);
        auto b_vals = b_->rowVals(task.bRow);
        const auto len = static_cast<Index>(b_cols.size());
        Index &prod = product_cursor_[p];

        bool blocked = false;
        while (prod < len && budget > 0) {
            if (tree_->leafFreeSpace(p) == 0) {
                ++port_full_stalls_;
                blocked = true;
                break;
            }
            tree_->pushLeaf(p,
                            {packCoord(task.aRow, b_cols[prod]),
                             task.aValue * b_vals[prod]});
            ++multiplies_;
            ++prod;
            --budget;
        }
        if (prod == len && !blocked) {
            // Element fully expanded: retire it, then re-examine the
            // same port (its next head may already be waiting).
            prod = 0;
            ++cursor;
            --remaining_;
            settled_.reset(p);
            fetcher_->noteConsumed(p);
            prefetcher_->noteConsumed(pos);
            if (cursor == (*port_queues_)[p].size())
                tree_->finishLeaf(p);
            continue;
        }
        ++off;
    }
    if (budget < config_->multipliers)
        ++active_cycles_;
    rr_port_ = n_ports == 0 ? 0 : (rr_port_ + 1) % n_ports;
}

SPARCH_HOT void
MultiplierArray::clockApply()
{}

void
MultiplierArray::recordStats(StatSet &stats) const
{
    stats.set(key_multiplies_, static_cast<double>(multiplies_));
    stats.set(key_row_wait_stalls_,
              static_cast<double>(row_wait_stalls_));
    stats.set(key_port_full_stalls_,
              static_cast<double>(port_full_stalls_));
    stats.set(key_active_cycles_,
              static_cast<double>(active_cycles_));
}

} // namespace sparch
