/**
 * @file
 * In-memory host-time spans for the traced benchmark run.
 *
 * A Span brackets one call into a pagesim layer. Spans nest: a layer's
 * self time is its span's duration minus the part covered by spans
 * opened inside it, so the self times of all layers add up to the
 * time spent inside outermost spans. Totals are kept per layer; the
 * outermost spans are also logged, tagged with their trial, so the run
 * can be written out at the end.
 *
 * Spans read the CPU timestamp counter where there is one (x86), which
 * costs about half of a steady_clock read; ticks become nanoseconds
 * only when totals are reported. The hot leaf layers (one call per
 * simulated op, fault or swap I/O) time a random one call in
 * kSampleEvery and count every call; estimated() scales their time up
 * and takes the unsampled calls' share out of the enclosing layer. It
 * also takes the timer's own latency, measured once per tracer, out of
 * every timed span and books it to the tracer itself.
 *
 * Host clocks live here, outside the simulator: nothing a Span
 * measures ever flows back into simulated state.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench
{

enum class Layer : std::uint8_t
{
    Rig,           ///< trial assembly and teardown (harness)
    SimRun,        ///< event loop; its self time is the kernel's
    PolicyAge,     ///< ReplacementPolicy::age
    PolicySelect,  ///< ReplacementPolicy::selectVictims
    PolicyHook,    ///< onPageResident + onPageRemoved (sampled)
    SwapSubmit,    ///< SwapDevice::submit (sampled)
    SwapCost,      ///< SwapDevice::cpuCost + noteSyncOp (sampled)
    WorkloadMake,  ///< makeWorkload
    WorkloadBuild, ///< Workload::build
    WorkloadNext,  ///< OpStream::next (sampled)
    CkptLoad,      ///< loadCheckpointFile
    CkptRestore,   ///< restoreCheckpoint
    CkptCapture,   ///< captureCheckpoint + CheckpointCache::insert
    Collect,       ///< result collection
    Count,
};

constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::Count);

const char *layerName(Layer layer);

inline std::uint64_t
hostNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Span timestamps, in ticks of the cheapest monotonic counter. */
inline std::uint64_t
hostTicks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return hostNowNs();
#endif
}

/** Measures nanoseconds per tick between construction and now(). */
class TickCalibration
{
  public:
    TickCalibration() : ns0_(hostNowNs()), ticks0_(hostTicks()) {}

    double
    nsPerTick() const
    {
        const std::uint64_t ticks = hostTicks() - ticks0_;
        const std::uint64_t ns = hostNowNs() - ns0_;
        return ticks > 0 ? static_cast<double>(ns) /
                               static_cast<double>(ticks)
                         : 1.0;
    }

  private:
    std::uint64_t ns0_;
    std::uint64_t ticks0_;
};

class Tracer
{
  public:
    /** Per-layer totals; ticks while tracing, ns once estimated(). */
    struct Totals
    {
        std::array<double, kLayers> self{};
        std::array<double, kLayers> total{};
        std::array<double, kLayers> calls{};
        /** Timer latency inside timed spans (estimated() only). */
        double tracer = 0.0;
    };

    Tracer();

    /** One logged outermost span, in ticks. */
    struct Record
    {
        Layer layer;
        std::uint64_t start;
        std::uint64_t end;
        std::uint32_t trial;
    };

    /** One in this many calls of a hot layer is timed. */
    static constexpr std::uint32_t kSampleEvery = 16;

    static constexpr bool
    hot(Layer layer)
    {
        return layer == Layer::PolicyHook || layer == Layer::SwapSubmit ||
               layer == Layer::SwapCost || layer == Layer::WorkloadNext;
    }

    /**
     * Count a call into @p layer; true when it is to be timed. Every
     * call of a cold layer is timed.
     */
    bool
    admit(Layer layer)
    {
        if (!hot(layer))
            return true;
        // xorshift64: host-side only, so sampling never aliases with
        // a periodic op pattern and never touches simulated state.
        rng_ ^= rng_ << 13;
        rng_ ^= rng_ >> 7;
        rng_ ^= rng_ << 17;
        if (rng_ % kSampleEvery == 0)
            return true;
        const std::size_t parent =
            depth_ > 0 ? static_cast<std::size_t>(stack_[depth_ - 1].layer)
                       : kLayers;
        ++unsampled_[static_cast<std::size_t>(layer)][parent];
        return false;
    }

    void
    enter(Layer layer)
    {
        if (depth_ == kMaxDepth) {
            std::fprintf(stderr, "perfbench: span nesting too deep\n");
            std::abort();
        }
        Frame &f = stack_[depth_++];
        f.layer = layer;
        f.childTicks = 0;
        f.start = hostTicks();
        if (depth_ == 1)
            log_.push_back({layer, f.start, 0, trial_});
    }

    void
    leave()
    {
        const std::uint64_t end = hostTicks();
        const Frame f = stack_[--depth_];
        const std::uint64_t d = end - f.start;
        const auto i = static_cast<std::size_t>(f.layer);
        ticks_.total[i] += static_cast<double>(d);
        ticks_.self[i] += static_cast<double>(d - f.childTicks);
        ++ticks_.calls[i];
        if (depth_ > 0)
            stack_[depth_ - 1].childTicks += d;
        else
            log_.back().end = end;
    }

    /** Tag the spans logged from now on with trial number @p trial. */
    void setTrial(std::uint32_t trial) { trial_ = trial; }

    /**
     * Totals in nanoseconds with every call counted: each hot layer's
     * time is scaled by calls over timed calls, and the unsampled
     * calls' estimated time moves out of the layer that enclosed them.
     */
    Totals estimated(double ns_per_tick) const;

    /** Write the span log as JSON lines; false on an I/O error. */
    bool writeLog(const std::string &path, double ns_per_tick) const;

    // Counts recorded at the same boundaries as the spans.
    std::uint64_t victimsAsked = 0;
    std::uint64_t victimsReturned = 0;
    std::uint64_t syncOps = 0;

  private:
    static constexpr int kMaxDepth = 16;

    struct Frame
    {
        Layer layer;
        std::uint64_t start;
        std::uint64_t childTicks;
    };

    std::array<Frame, kMaxDepth> stack_{};
    int depth_ = 0;
    std::uint32_t trial_ = 0;
    std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;
    /** Ticks an empty span measures: the timer's own latency. */
    double floorTicks_ = 0.0;
    Totals ticks_;
    /** [hot layer][enclosing layer, or kLayers at top level] */
    std::array<std::array<std::uint64_t, kLayers + 1>, kLayers>
        unsampled_{};
    std::vector<Record> log_;
};

/** RAII span; a null tracer records nothing. */
class Span
{
  public:
    Span(Tracer *tracer, Layer layer)
        : tracer_(tracer != nullptr && tracer->admit(layer) ? tracer
                                                            : nullptr)
    {
        if (tracer_)
            tracer_->enter(layer);
    }
    ~Span()
    {
        if (tracer_)
            tracer_->leave();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
