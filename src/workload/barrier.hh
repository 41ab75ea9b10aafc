/**
 * @file
 * Reusable barrier for workload threads.
 *
 * Models the synchronization structure the paper leans on to explain
 * PageRank's runtime behavior: per-iteration barriers make an
 * iteration's duration equal to its slowest thread's, so "a few
 * critical faults" on one thread dominate (Sec. V-B).
 */

#ifndef PAGESIM_WORKLOAD_BARRIER_HH
#define PAGESIM_WORKLOAD_BARRIER_HH

#include <cassert>
#include <vector>

#include "sim/actor.hh"

namespace pagesim
{

/** A counting barrier over SimActors, reusable across generations. */
class SimBarrier
{
  public:
    explicit
    SimBarrier(unsigned parties)
        : parties_(parties)
    {
        assert(parties >= 1);
        waiting_.reserve(parties);
    }

    unsigned parties() const { return parties_; }
    unsigned arrived() const { return arrived_; }
    std::uint64_t generation() const { return generation_; }

    /**
     * @p actor arrives at the barrier.
     * @return true if the barrier released (the caller proceeds and
     *         all waiters have been woken); false if the caller must
     *         block() and will be woken by the last arriver.
     */
    bool
    arrive(SimActor &actor)
    {
        ++arrived_;
        if (arrived_ < parties_) {
            waiting_.push_back(&actor);
            return false;
        }
        // Last arriver: release everyone.
        arrived_ = 0;
        ++generation_;
        std::vector<SimActor *> woken;
        woken.swap(waiting_);
        for (SimActor *waiter : woken)
            waiter->wake();
        return true;
    }

    /**
     * Checkpoint the barrier, mapping each waiting actor to its id in
     * @p actors (waiters are stored in arrival order, which a load
     * preserves — wake order depends on it).
     */
    template <class Self, class Ar>
    static void
    state(Self &self, Ar &ar, const RefTable<SimActor> &actors)
    {
        ar.u32(self.arrived_);
        ar.u64(self.generation_);
        ar.records(self.waiting_,
                   [&](auto &actor) { ar.ref(actor, actors); });
    }

  private:
    const unsigned parties_;
    unsigned arrived_ = 0;
    std::uint64_t generation_ = 0;
    std::vector<SimActor *> waiting_;
};

} // namespace pagesim

#endif // PAGESIM_WORKLOAD_BARRIER_HH
