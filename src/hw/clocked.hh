/**
 * @file
 * The two-phase clocked-module contract.
 *
 * Section III-A of the paper describes the authors' simulator: "Each
 * module is abstracted as a class with a clock update method updating
 * the internal state of this module in each cycle, and a clock apply
 * method, which simulates the flip-flops in the circuit to make sure
 * signals are updated correctly." This header reproduces exactly that
 * structure: the kernel (hw/static_kernel.hh) calls clockUpdate() on
 * every module (combinational evaluation against the current registered
 * state), then clockApply() (commit of next state), then advances the
 * cycle counter.
 *
 * The module set of the Fig. 10 pipeline is fixed at compile time, so
 * the contract is a concept rather than a virtual base: the kernel
 * makes direct, inlineable calls, and a module that grows a virtual
 * member no longer satisfies it.
 */

#ifndef SPARCH_HW_CLOCKED_HH
#define SPARCH_HW_CLOCKED_HH

#include <type_traits>

#include "common/stats.hh"

namespace sparch
{
namespace hw
{

/**
 * A clocked hardware module: clockUpdate() computes the next state
 * from the current one, clockApply() commits it (the flip-flop edge),
 * and recordStats() exports the module's statistics.
 */
template <typename M>
concept Clocked = !std::is_polymorphic_v<M> &&
                  requires(M &m, const M &cm, StatSet &stats) {
                      m.clockUpdate();
                      m.clockApply();
                      cm.recordStats(stats);
                  };

} // namespace hw
} // namespace sparch

#endif // SPARCH_HW_CLOCKED_HH
