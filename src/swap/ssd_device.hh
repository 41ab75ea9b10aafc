/**
 * @file
 * SSD swap device: queued asynchronous block device.
 *
 * The paper measures 4 KB read/write latency of ~7.5 ms on its SSD
 * under swap load; we use that as the nominal service time, with
 * bounded internal parallelism (an NCQ-style window) and FIFO queueing
 * behind it, plus small log-normal service variation so I/O completion
 * order isn't artificially lock-stepped.
 */

#ifndef PAGESIM_SWAP_SSD_DEVICE_HH
#define PAGESIM_SWAP_SSD_DEVICE_HH

#include <cassert>
#include <deque>
#include <string>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "swap/swap_device.hh"

namespace pagesim
{

/** Tunables for SsdSwapDevice. */
struct SsdConfig
{
    /**
     * Raw 4 KB op service time. The paper *measures* ~7.5 ms per op
     * under swap load — a loaded latency, i.e. service plus queueing.
     * With 1.5 ms service and a 4-deep NCQ window, the observed
     * latency under sustained reclaim pressure lands in that range,
     * and the device operates near saturation — the regime where
     * small timing differences amplify into the paper's large
     * run-to-run runtime spreads.
     */
    SimDuration readLatency = msecs(1) + usecs(500);
    SimDuration writeLatency = msecs(1) + usecs(500);
    /** Concurrent in-flight ops the device sustains (NCQ window). */
    unsigned parallelism = 4;
    /** Sigma of log-normal service-time jitter (0 disables). */
    double jitterSigma = 0.05;

    /**
     * Garbage-collection episodes: under sustained swap writes, real
     * SSDs periodically stall for internal GC, multiplying service
     * times for a stretch. Episodes are a major source of *correlated*
     * latency noise — whole bursts of faults land in a slow window —
     * which is what turns per-op jitter into trial-level runtime
     * variance. Set gcFactor to 1 to disable.
     */
    double gcFactor = 4.0;
    /** Mean time between GC episodes (exponential). */
    SimDuration gcIntervalMean = msecs(400);
    /** Mean GC episode duration (exponential). */
    SimDuration gcDurationMean = msecs(50);
};

/** Asynchronous queued SSD model. */
class SsdSwapDevice : public SwapDevice
{
  public:
    SsdSwapDevice(EventQueue &events, Rng rng,
                  const SsdConfig &config = SsdConfig{});

    const std::string &name() const override { return name_; }
    bool synchronous() const override { return false; }

    void submit(SwapSlot slot, bool is_write, Callback cb) override;

    SimDuration
    cpuCost(SwapSlot, bool) const override
    {
        return 0; // async device: no caller-side CPU cost
    }

    void noteSyncOp(SwapSlot, bool) override {}

    unsigned inFlight() const { return inFlight_; }
    std::size_t queued() const { return queue_.size(); }
    /** GC episodes entered so far (diagnostic). */
    std::uint64_t gcEpisodes() const { return gcEpisodes_; }

    /** No completion callback may be pending across a checkpoint. */
    bool
    quiescent() const override
    {
        return inFlight_ == 0 && queue_.empty();
    }

    void saveState(Sink &sink) const override { state(*this, sink); }
    void restoreState(Source &src) override { state(*this, src); }

    /**
     * GC state is lazy (evaluated at submit time, no scheduled
     * events), so plain values plus the device RNG capture it fully.
     */
    template <class Self, class Ar>
    static void
    state(Self &self, Ar &ar)
    {
        if constexpr (!Ar::kLoading)
            assert(self.quiescent() &&
                   "SSD checkpoint requires an idle device");
        SwapDevice::state(self, ar);
        Rng::state(self.rng_, ar);
        ar.u64(self.gcUntil_);
        ar.u64(self.nextGcAt_);
        ar.boolean(self.gcScheduled_);
        ar.u64(self.gcEpisodes_);
    }

  private:
    struct Request
    {
        bool isWrite;
        SimTime submitted;
        SimTime started = 0; ///< service start (set by startOne)
        Callback cb;
    };

    void startOne(Request req);
    void complete(Request req);
    SimDuration serviceTime(bool is_write);

    /** Service-time multiplier considering the GC state at @p now. */
    double gcMultiplier(SimTime now);

    EventQueue &events_;
    Rng rng_;
    const SsdConfig config_;
    const std::string name_ = "ssd";
    // lint:state-cov-ok(zero at checkpoint: saving asserts the device is quiescent)
    unsigned inFlight_ = 0;
    // lint:state-cov-ok(empty at checkpoint: saving asserts the device is quiescent)
    std::deque<Request> queue_;
    /** GC state: degraded until gcUntil_, next episode at nextGcAt_. */
    SimTime gcUntil_ = 0;
    SimTime nextGcAt_ = 0;
    bool gcScheduled_ = false;
    std::uint64_t gcEpisodes_ = 0;
};

} // namespace pagesim

#endif // PAGESIM_SWAP_SSD_DEVICE_HH
