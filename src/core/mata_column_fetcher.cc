#include "core/mata_column_fetcher.hh"

#include <algorithm>

#include "common/annotations.hh"
#include "common/logging.hh"

namespace sparch
{

MataColumnFetcher::MataColumnFetcher(const SpArchConfig &config,
                                     mem::MemoryModel &mem,
                                     const std::string &name)
    : config_(&config), mem_(&mem)
{
    key_elements_fetched_ = name + ".elements_fetched";
    key_issue_cycles_ = name + ".issue_cycles";
}

void
MataColumnFetcher::startRound(
    const std::vector<MultTask> *tasks,
    const std::vector<std::vector<std::uint64_t>> *port_queues,
    Bytes rowptr_bytes)
{
    tasks_ = tasks;
    port_queues_ = port_queues;
    arrived_.assign(tasks ? tasks->size() : 0, false);
    issued_.assign(port_queues ? port_queues->size() : 0, 0);
    retired_.assign(port_queues ? port_queues->size() : 0, 0);
    rr_port_ = 0;
    const std::size_t n_ports = port_queues ? port_queues->size() : 0;
    issuable_.assign(n_ports);
    head_arrived_.assign(n_ports);
    if (port_queues != nullptr) {
        std::size_t window = 0;
        for (unsigned p = 0; p < n_ports; ++p) {
            const auto &queue = (*port_queues)[p];
            window += std::min<std::size_t>(queue.size(),
                                            config_->aElementWindow);
            refreshIssuable(p);
        }
        inflight_.reserve(window);
    }
    inflight_.clear();

    // Row-pointer metadata for the selected columns streams in at the
    // start of the round.
    if (rowptr_bytes > 0)
        mem_->read(DramStream::MatA, 0, rowptr_bytes, now_);
}

SPARCH_HOT void
MataColumnFetcher::clockUpdate()
{
    if (tasks_ == nullptr || port_queues_ == nullptr)
        return;

    // Land completed reads; a landing on its port's head makes the
    // port visible to the multiplier.
    while (!inflight_.empty() && now_ >= inflight_.front().ready) {
        const std::uint64_t pos = inflight_.front().pos;
        const unsigned port = inflight_.front().port;
        arrived_[pos] = true;
        if ((*port_queues_)[port][retired_[port]] == pos)
            head_arrived_.set(port);
        std::pop_heap(inflight_.begin(), inflight_.end(),
                      std::greater<Flight>{});
        inflight_.pop_back();
    }

    // Issue new element reads, round-robin across the column
    // fetchers; each runs a bounded window ahead of its consumer.
    // Only issuable ports are visited, in the same round-robin order,
    // and a port keeps issuing until its window fills or the cycle's
    // width is spent.
    const auto n_ports = static_cast<unsigned>(port_queues_->size());
    if (n_ports == 0)
        return;
    const auto issuable = [this](std::size_t w) {
        return issuable_.word(w);
    };
    unsigned budget = config_->mataFetchWidth;
    std::size_t off = 0;
    bool issued_any = false;
    while (budget > 0) {
        off = bitmask::cyclicNext(issuable, 0, n_ports, rr_port_, off);
        if (off == n_ports)
            break;
        const auto p = static_cast<unsigned>((rr_port_ + off) % n_ports);
        const std::uint64_t pos = (*port_queues_)[p][issued_[p]];
        const Cycle ready =
            mem_->read(DramStream::MatA, (*tasks_)[pos].addr,
                       bytesPerElement, now_);
        inflight_.push_back({ready, pos, p});
        std::push_heap(inflight_.begin(), inflight_.end(),
                       std::greater<Flight>{});
        ++issued_[p];
        refreshIssuable(p);
        ++elements_fetched_;
        --budget;
        issued_any = true;
    }
    if (issued_any)
        ++issue_cycles_;
    rr_port_ = (rr_port_ + 1) % n_ports;
    if (SPARCH_DCHECK_IS_ON)
        checkMasks();
}

void
MataColumnFetcher::checkMasks() const
{
    for (unsigned p = 0; p < port_queues_->size(); ++p) {
        const auto &queue = (*port_queues_)[p];
        const bool issuable =
            issued_[p] < queue.size() &&
            issued_[p] - retired_[p] < config_->aElementWindow;
        SPARCH_DCHECK(issuable_.test(p) == issuable,
                      "stale issuable bit for port ", p);
        const bool head = retired_[p] < queue.size() &&
                          arrived_[queue[retired_[p]]];
        SPARCH_DCHECK(head_arrived_.test(p) == head,
                      "stale head-arrived bit for port ", p);
    }
}

void
MataColumnFetcher::clockApply()
{
    ++now_;
}

void
MataColumnFetcher::recordStats(StatSet &stats) const
{
    stats.set(key_elements_fetched_,
              static_cast<double>(elements_fetched_));
    stats.set(key_issue_cycles_, static_cast<double>(issue_cycles_));
}

} // namespace sparch
