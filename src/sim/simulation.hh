/**
 * @file
 * Simulation: the top-level container tying together the event queue,
 * CPU model, and root random stream for one simulated machine boot.
 *
 * One Simulation instance corresponds to one trial in the paper's
 * methodology ("we reboot the system before each execution"): all state
 * — page tables, policy metadata, swap devices, RNG — is constructed
 * fresh per trial.
 */

#ifndef PAGESIM_SIM_SIMULATION_HH
#define PAGESIM_SIM_SIMULATION_HH

#include <cstdint>
#include <string>

#include "sim/cpu_model.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace pagesim
{

/** One simulated machine boot. */
class Simulation
{
  public:
    /**
     * @param num_cpus logical CPUs (the paper's testbed exposes 12)
     * @param seed     root seed; every stochastic component forks from it
     */
    explicit Simulation(unsigned num_cpus = 12, std::uint64_t seed = 1);

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    EventQueue &events() { return events_; }
    const EventQueue &events() const { return events_; }
    CpuModel &cpus() { return cpus_; }
    const CpuModel &cpus() const { return cpus_; }

    SimTime now() const { return events_.now(); }
    std::uint64_t seed() const { return seed_; }

    /** Fork an independent RNG stream for a named component. */
    Rng forkRng(const std::string &component) const;

    /** Fork an independent RNG stream for a numbered component. */
    Rng forkRng(std::uint64_t stream) const { return root_.fork(stream); }

    /** Track foreground (workload) actors so run() knows when to stop. */
    void foregroundStarted() { ++foreground_; }
    void foregroundFinished();
    unsigned foregroundRunning() const { return foreground_; }

    /**
     * Run the simulation until every foreground actor has finished (or
     * the event queue drains, which tests treat as a failure if
     * foreground actors remain).
     *
     * @param max_events hard cap as a runaway guard
     * @return true if all foreground actors finished
     */
    bool runToCompletion(std::uint64_t max_events = UINT64_MAX);

    /**
     * Checkpoint the simulation-global mutable state (clock aside: the
     * event queue's clock is restored via events().restoreClock by the
     * checkpoint machinery, which also owns re-inserting pending actor
     * events). root_ is NOT captured: every component forks its streams
     * during construction, which a restore replays identically.
     */
    template <class Self, class Ar>
    static void
    state(Self &self, Ar &ar)
    {
        ar.u32(self.foreground_);
        CpuModel::state(self.cpus_, ar);
    }

  private:
    // lint:state-cov-ok(clock restored via restoreClock and pending events re-inserted by the checkpoint machinery)
    EventQueue events_;
    CpuModel cpus_;
    /** Fork-only: components re-fork identical child streams. */
    const Rng root_;
    const std::uint64_t seed_;
    unsigned foreground_ = 0;

};

} // namespace pagesim

#endif // PAGESIM_SIM_SIMULATION_HH
