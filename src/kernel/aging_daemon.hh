/**
 * @file
 * AgingDaemon: MG-LRU's page-table-walking aging thread.
 *
 * Polls the policy's wantsAging() on a jittered interval and runs
 * aging passes, charging the walk's cost as its own CPU time. The
 * jitter matters: the paper attributes part of MG-LRU's run-to-run
 * variance to scheduling interactions between this thread and the
 * application (Sec. VI-A), and the per-trial phase of aging walks
 * relative to workload phases is exactly what the jitter randomizes
 * across "reboots".
 */

#ifndef PAGESIM_KERNEL_AGING_DAEMON_HH
#define PAGESIM_KERNEL_AGING_DAEMON_HH

#include "sim/actor.hh"
#include "sim/rng.hh"

namespace pagesim
{

class MemoryManager;

/** MG-LRU aging thread (no-op for policies that never want aging). */
class AgingDaemon : public SimActor
{
  public:
    AgingDaemon(Simulation &sim, MemoryManager &mm, Rng rng);

    /** Aging passes this daemon executed. */
    std::uint64_t passes() const { return passes_; }

    void saveState(Sink &sink) const override { state(*this, sink); }
    void restoreState(Source &src) override { state(*this, src); }

    template <class Self, class Ar>
    static void
    state(Self &self, Ar &ar)
    {
        SimActor::state(self, ar);
        ar.u64(self.passes_);
        ar.u64(self.cursor_);
        ar.u64(self.pendingSleepNs_);
        Rng::state(self.rng_, ar);
    }


  protected:
    void step() override;

  private:
    SimDuration jittered(SimDuration base);

    MemoryManager &mm_;
    Rng rng_;
    std::uint64_t passes_ = 0;
    /** Round-robin memcg cursor (resume point for multi-slice walks). */
    std::size_t cursor_ = 0;
    /** Sleep to take on the next step (after charging slice CPU). */
    SimDuration pendingSleepNs_ = 0;
};

} // namespace pagesim

#endif // PAGESIM_KERNEL_AGING_DAEMON_HH
