/**
 * @file
 * The simulation kernel.
 *
 * The Fig. 10 pipeline is a fixed set of modules, so the per-cycle
 * dispatch needs no indirection: this kernel holds the concrete module
 * types in a tuple and unrolls both clock phases into direct calls at
 * compile time, which the compiler can inline into the tick loop.
 * Every module type must satisfy hw::Clocked (hw/clocked.hh).
 */

#ifndef SPARCH_HW_STATIC_KERNEL_HH
#define SPARCH_HW_STATIC_KERNEL_HH

#include <tuple>

#include "common/annotations.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "hw/clocked.hh"

namespace sparch
{
namespace hw
{

/**
 * Compile-time-unrolled simulation kernel over a fixed module set:
 * clockUpdate on every module in order (producers before consumers, so
 * data flows one stage per cycle), then clockApply in the same order,
 * then advance the cycle.
 */
template <Clocked... Modules>
class StaticKernel
{
  public:
    explicit StaticKernel(Modules &...modules) : modules_(&modules...) {}

    StaticKernel(const StaticKernel &) = delete;
    StaticKernel &operator=(const StaticKernel &) = delete;

    /** Advance one clock cycle. */
    SPARCH_HOT void
    tick()
    {
        std::apply([](auto *...m) { (m->clockUpdate(), ...); }, modules_);
        std::apply([](auto *...m) { (m->clockApply(), ...); }, modules_);
        ++now_;
    }

    /** Advance until the predicate is true or max_cycles elapse. */
    template <typename DonePredicate>
    SPARCH_HOT bool
    run(DonePredicate &&done, Cycle max_cycles)
    {
        while (!done()) {
            if (now_ >= max_cycles)
                return false;
            tick();
        }
        return true;
    }

    /** Current simulation time in cycles. */
    Cycle now() const { return now_; }

    /** Collect statistics from all modules. */
    void
    recordStats(StatSet &stats) const
    {
        std::apply([&](auto *...m) { (m->recordStats(stats), ...); },
                   modules_);
    }

  private:
    std::tuple<Modules *...> modules_;
    Cycle now_ = 0;
};

} // namespace hw
} // namespace sparch

#endif // SPARCH_HW_STATIC_KERNEL_HH
