#include "hw/merge_tree.hh"

#include <algorithm>

#include "common/annotations.hh"
#include "common/logging.hh"

namespace sparch
{
namespace hw
{

MergeTree::MergeTree(const MergeTreeConfig &config, const std::string &name,
                     Arena *arena)
    : config_(config)
{
    SPARCH_ASSERT(config_.layers >= 1 && config_.layers <= 16,
                  "merge tree layers out of range: ", config_.layers);
    SPARCH_ASSERT(config_.mergerWidth >= 1,
                  "merger width must be positive");
    const unsigned node_count = (2u << config_.layers);
    nodes_.reserve(node_count);
    for (unsigned i = 0; i < node_count; ++i) {
        if (arena != nullptr)
            nodes_.emplace_back(config_.fifoCapacity, *arena);
        else
            nodes_.emplace_back(config_.fifoCapacity);
    }
    cursor_.assign(config_.layers, 0);
    servable_.assign(leafCount());
    leaf_full_.assign(leafCount());
    eos_pending_.assign(leafCount());
    const std::string p = name + ".";
    key_elements_merged_ = p + "elements_merged";
    key_additions_ = p + "additions";
    key_cycles_ = p + "cycles";
    key_idle_cycles_ = p + "idle_cycles";
    key_fifo_pushes_ = p + "fifo_pushes";
    key_fifo_pops_ = p + "fifo_pops";
    startRound(0);
}

void
MergeTree::startRound(unsigned active_leaves)
{
    SPARCH_ASSERT(active_leaves <= leafCount(),
                  "round uses ", active_leaves, " leaves, tree has ",
                  leafCount());
    const unsigned first_leaf = leafCount();
    for (unsigned i = 1; i < nodes_.size(); ++i) {
        nodes_[i].fifo.clear();
        if (i >= first_leaf) {
            // Unused leaves are exhausted from the start.
            nodes_[i].inputDone = (i - first_leaf) >= active_leaves;
        } else {
            nodes_[i].inputDone = false;
        }
    }
    // Propagate exhaustion of unused subtrees immediately.
    for (unsigned i = first_leaf - 1; i >= 1; --i) {
        nodes_[i].inputDone =
            nodeExhausted(2 * i) && nodeExhausted(2 * i + 1);
        if (i == 1)
            break;
    }
    for (unsigned i = 1; i < first_leaf; ++i)
        refreshServable(i);
    leaf_full_.assign(leafCount());
    // The pass above already reached the end-of-stream fixpoint.
    eos_pending_.assign(leafCount());
    eos_dirty_ = false;
}

void
MergeTree::pushCombining(Node &node, const StreamElement &element)
{
    ++elements_merged_;
    moved_this_cycle_ = true;
    // Merger output invariant: within a round, every internal FIFO
    // receives a non-decreasing coordinate stream (a 2-way merge of
    // sorted children cannot emit out of order).
    SPARCH_DCHECK(node.fifo.empty() ||
                      node.fifo.back().coord <= element.coord,
                  "merger emitted out of order: ",
                  node.fifo.back().coord, " then ", element.coord);
    if (config_.combineDuplicates && !node.fifo.empty() &&
        node.fifo.back().coord == element.coord) {
        // Adder slice: adjacent same-coordinate elements are summed;
        // the zero eliminator removes the vacated slot, so no FIFO
        // space is consumed.
        node.fifo.back().value += element.value;
        ++additions_;
        return;
    }
    node.fifo.push(element);
}

void
MergeTree::serveParent(unsigned parent)
{
    Node &p = nodes_[parent];
    Node &left = nodes_[2 * parent];
    Node &right = nodes_[2 * parent + 1];
    const bool was_empty = p.fifo.empty();
    const bool left_was_full = left.fifo.full();
    const bool right_was_full = right.fifo.full();

    unsigned moved = 0;
    while (moved < config_.mergerWidth && !p.fifo.full()) {
        const bool left_avail = !left.fifo.empty();
        const bool right_avail = !right.fifo.empty();
        if (left_avail && right_avail) {
            // Ties pop the right child first, matching the strict '<'
            // comparator convention (B side wins ties).
            if (left.fifo.front().coord < right.fifo.front().coord)
                pushCombining(p, left.fifo.pop());
            else
                pushCombining(p, right.fifo.pop());
        } else if (left_avail && nodeExhausted(2 * parent + 1)) {
            pushCombining(p, left.fifo.pop());
        } else if (right_avail && nodeExhausted(2 * parent)) {
            pushCombining(p, right.fifo.pop());
        } else {
            // Stall: a child FIFO is empty but not exhausted, so the
            // merger cannot know the next coordinate from that side.
            break;
        }
        ++moved;
    }
    // A drained child with inputDone set has just become exhausted;
    // let the end-of-stream sweep recompute this node.
    if (nodeExhausted(2 * parent) || nodeExhausted(2 * parent + 1))
        markEos(parent);

    // servable(n) reads n's fullness and inputDone and its children's
    // emptiness and inputDone. Serving filled this node (it may be
    // full now, a child may be empty), its parent sees it non-empty
    // only if it was empty, and a child regains room only if it was
    // full; refresh exactly those bits.
    refreshServable(parent);
    if (parent > 1 && was_empty)
        refreshServable(parent / 2);
    const unsigned first_leaf = leafCount();
    if (2 * parent < first_leaf) {
        if (left_was_full)
            refreshServable(2 * parent);
        if (right_was_full)
            refreshServable(2 * parent + 1);
    } else {
        if (left_was_full)
            leaf_full_.set(2 * parent - first_leaf, left.fifo.full());
        if (right_was_full) {
            leaf_full_.set(2 * parent + 1 - first_leaf,
                           right.fifo.full());
        }
    }
}

SPARCH_HOT void
MergeTree::clockUpdate()
{
    // One shared merger per level, serving a single parent node per
    // cycle: the first servable parent in round-robin order from the
    // level's cursor. Levels are processed root-side first so data
    // advances one level per cycle, like the registered pipeline in
    // hardware.
    const auto servable = [this](std::size_t w) {
        return servable_.word(w);
    };
    for (unsigned level = 0; servable_count_ > 0 && level < config_.layers;
         ++level) {
        const unsigned first = 1u << level;
        const unsigned count = 1u << level;
        unsigned &cur = cursor_[level];
        const std::size_t off =
            bitmask::cyclicNext(servable, first, count, cur, 0);
        if (off < count) {
            const auto parent =
                static_cast<unsigned>(first + (cur + off) % count);
            serveParent(parent);
            cur = (parent - first + 1) % count;
        }
    }

    // Propagate end-of-stream deepest-first (cheap control signals),
    // over the pending nodes only: a node finished here marks its
    // parent, one level up, which the same pass then visits.
    if (eos_dirty_) {
        const auto pending = [this](std::size_t w) {
            return eos_pending_.word(w);
        };
        for (unsigned level = config_.layers; level-- > 0;) {
            const std::size_t end = 2u << level;
            for (std::size_t i = bitmask::findNext(pending, end / 2, end);
                 i < end; i = bitmask::findNext(pending, i + 1, end)) {
                eos_pending_.reset(i);
                const auto node = static_cast<unsigned>(i);
                if (!nodes_[node].inputDone &&
                    nodeExhausted(2 * node) &&
                    nodeExhausted(2 * node + 1)) {
                    nodes_[node].inputDone = true;
                    refreshServable(node);
                    if (node > 1) {
                        refreshServable(node / 2);
                        eos_pending_.set(node / 2);
                    }
                }
            }
        }
        eos_dirty_ = false;
    }
    if (SPARCH_DCHECK_IS_ON)
        checkMasks();
}

void
MergeTree::checkMasks() const
{
    int count = 0;
    for (unsigned i = 1; i < leafCount(); ++i) {
        SPARCH_DCHECK(servable_.test(i) == servable(i),
                      "stale servable bit for node ", i);
        count += servable_.test(i) ? 1 : 0;
        // The sweep left no node whose children are both exhausted.
        SPARCH_DCHECK(nodes_[i].inputDone || !nodeExhausted(2 * i) ||
                          !nodeExhausted(2 * i + 1),
                      "end-of-stream not propagated to node ", i);
    }
    SPARCH_DCHECK(count == servable_count_, "servable count ",
                  servable_count_, " but ", count, " bits set");
    for (unsigned l = 0; l < leafCount(); ++l) {
        SPARCH_DCHECK(leaf_full_.test(l) ==
                          nodes_[leafCount() + l].fifo.full(),
                      "stale leaf-full bit for leaf ", l);
    }
}

SPARCH_HOT void
MergeTree::clockApply()
{
    ++cycles_;
    if (!moved_this_cycle_)
        ++idle_cycles_;
    moved_this_cycle_ = false;
}

std::uint64_t
MergeTree::fifoPushes() const
{
    std::uint64_t total = 0;
    for (const auto &n : nodes_)
        total += n.fifo.pushes();
    return total;
}

std::uint64_t
MergeTree::fifoPops() const
{
    std::uint64_t total = 0;
    for (const auto &n : nodes_)
        total += n.fifo.pops();
    return total;
}

void
MergeTree::recordStats(StatSet &stats) const
{
    stats.set(key_elements_merged_,
              static_cast<double>(elements_merged_));
    stats.set(key_additions_, static_cast<double>(additions_));
    stats.set(key_cycles_, static_cast<double>(cycles_));
    stats.set(key_idle_cycles_, static_cast<double>(idle_cycles_));
    stats.set(key_fifo_pushes_, static_cast<double>(fifoPushes()));
    stats.set(key_fifo_pops_, static_cast<double>(fifoPops()));
}

} // namespace hw
} // namespace sparch
