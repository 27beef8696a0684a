/**
 * @file
 * MatA column fetcher (Section II-E, Fig. 10; Table I: "64 fetchers
 * support 64 columns of left matrix").
 *
 * One fetcher per selected (condensed) column streams that column's
 * elements from DRAM independently of the other columns — this is what
 * keeps one slow or back-pressured column from starving the rest of
 * the merge tree. Each fetcher runs a small in-flight window ahead of
 * its multiplier consumption. The look-ahead FIFO of Table I is the
 * *prediction* window of the distance-list builder and lives in the
 * row prefetcher, which observes the same element stream in the global
 * Fig. 7 load order.
 */

#ifndef SPARCH_CORE_MATA_COLUMN_FETCHER_HH
#define SPARCH_CORE_MATA_COLUMN_FETCHER_HH

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/bitmask.hh"
#include "common/stats.hh"
#include "core/round_stream.hh"
#include "core/sparch_config.hh"
#include "mem/memory_model.hh"

namespace sparch
{

/** The per-column left-matrix element fetchers. */
class MataColumnFetcher
{
  public:
    MataColumnFetcher(const SpArchConfig &config,
                      mem::MemoryModel &mem, const std::string &name);

    MataColumnFetcher(const MataColumnFetcher &) = delete;
    MataColumnFetcher &operator=(const MataColumnFetcher &) = delete;

    /**
     * Begin a merge round.
     * @param tasks        The round's element stream.
     * @param port_queues  Per fresh port, global stream positions of
     *                     its elements in order.
     * @param rowptr_bytes Row-pointer metadata read up front.
     */
    void startRound(const std::vector<MultTask> *tasks,
                    const std::vector<std::vector<std::uint64_t>>
                        *port_queues,
                    Bytes rowptr_bytes);

    /**
     * Ports whose head element (the oldest unretired one) has arrived
     * on chip. Set when a read lands on a port's head, recomputed when
     * the head retires; a port whose queue has ended is never set.
     */
    const Bitmask &headArrived() const { return head_arrived_; }

    /** Called by the multiplier when a port's head element retires. */
    void
    noteConsumed(unsigned port)
    {
        const std::size_t head = ++retired_[port];
        const auto &queue = (*port_queues_)[port];
        head_arrived_.set(port,
                          head < queue.size() && arrived_[queue[head]]);
        refreshIssuable(port);
    }

    void clockUpdate();
    void clockApply();
    void recordStats(StatSet &stats) const;

    /** Cycles in which at least one element read was issued. */
    std::uint64_t issueCycles() const { return issue_cycles_; }

  private:
    const SpArchConfig *config_;
    mem::MemoryModel *mem_;
    Cycle now_ = 0;

    const std::vector<MultTask> *tasks_ = nullptr;
    const std::vector<std::vector<std::uint64_t>> *port_queues_ =
        nullptr;

    /** A port may issue while its queue has entries left and its
     *  in-flight window has room. */
    void
    refreshIssuable(unsigned port)
    {
        issuable_.set(port,
                      issued_[port] < (*port_queues_)[port].size() &&
                          issued_[port] - retired_[port] <
                              config_->aElementWindow);
    }

    /** DCHECK builds: every mask bit matches the state it caches. */
    void checkMasks() const;

    std::vector<bool> arrived_;
    std::vector<std::size_t> issued_;  //!< per-port issue cursor
    std::vector<std::size_t> retired_; //!< per-port retire count
    unsigned rr_port_ = 0;

    /** Ports that may issue this cycle (see refreshIssuable). */
    Bitmask issuable_;
    /** Ports whose head element has arrived (see headArrived). */
    Bitmask head_arrived_;

    /** In-flight reads, a min-heap ordered by completion time. The
     *  heap lives in a member vector so its storage is reused across
     *  rounds instead of reallocated. */
    struct Flight
    {
        Cycle ready;
        std::uint64_t pos;
        unsigned port; //!< carried so landing never touches tasks_

        bool
        operator>(const Flight &other) const
        {
            return std::tie(ready, pos) > std::tie(other.ready, other.pos);
        }
    };
    std::vector<Flight> inflight_;

    std::uint64_t elements_fetched_ = 0;
    std::uint64_t issue_cycles_ = 0;

    std::string key_elements_fetched_, key_issue_cycles_;
};

} // namespace sparch

#endif // SPARCH_CORE_MATA_COLUMN_FETCHER_HH
