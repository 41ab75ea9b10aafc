/**
 * @file
 * Kswapd: the background reclaim daemon (MG-LRU's "eviction thread").
 *
 * Sleeps until the memory manager wakes it below the low watermark,
 * then reclaims batch after batch — charging the policy's scan costs
 * as its own CPU time, so heavy eviction-side scanning becomes real
 * CPU contention — until free memory reaches the high watermark.
 * When the policy can't produce victims (MG-LRU needs a new
 * generation), it pokes the aging daemon and retries shortly after.
 */

#ifndef PAGESIM_KERNEL_KSWAPD_HH
#define PAGESIM_KERNEL_KSWAPD_HH

#include "sim/actor.hh"

namespace pagesim
{

class MemoryManager;

/** Background reclaim daemon. */
class Kswapd : public SimActor
{
  public:
    Kswapd(Simulation &sim, MemoryManager &mm);

    /** Total pages this daemon reclaimed. */
    std::uint64_t reclaimed() const { return reclaimed_; }
    /** Reclaim rounds that made no progress. */
    std::uint64_t stalls() const { return stalls_; }

    void saveState(Sink &sink) const override { state(*this, sink); }
    void restoreState(Source &src) override { state(*this, src); }

    template <class Self, class Ar>
    static void
    state(Self &self, Ar &ar)
    {
        SimActor::state(self, ar);
        ar.u64(self.reclaimed_);
        ar.u64(self.stalls_);
    }


  protected:
    void step() override;

  private:
    MemoryManager &mm_;
    std::uint64_t reclaimed_ = 0;
    std::uint64_t stalls_ = 0;
};

} // namespace pagesim

#endif // PAGESIM_KERNEL_KSWAPD_HH
