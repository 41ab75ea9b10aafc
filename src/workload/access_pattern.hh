/**
 * @file
 * Declarative access-pattern segments and the PatternStream that
 * expands them into Ops.
 *
 * Workloads compile each thread's behavior into a compact list of
 * segments (sequential runs, random runs, barriers, phase markers);
 * PatternStream lazily expands segments into the millions of per-page
 * operations the thread executes. Random runs support uniform and
 * zipfian page selection so skewed structures (hash tables, rank
 * vectors, key popularity) are first-class.
 */

#ifndef PAGESIM_WORKLOAD_ACCESS_PATTERN_HH
#define PAGESIM_WORKLOAD_ACCESS_PATTERN_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "sim/rng.hh"
#include "workload/ops.hh"

namespace pagesim
{

/** Touch pages [base, base+count) in order. */
struct SeqTouch
{
    Vpn base = 0;
    std::uint64_t count = 0;
    bool write = false;
    bool fd = false;                  ///< buffered-I/O access
    SimDuration computePerPage = 0;   ///< CPU charged before each touch
};

/** Touch @p count pages drawn from [base, base+span). */
struct RandTouch
{
    Vpn base = 0;
    std::uint64_t span = 1;
    std::uint64_t count = 0;
    bool write = false;
    bool fd = false;
    SimDuration computePerTouch = 0;
    /** <= 0 selects uniform; otherwise zipfian skew theta. */
    double zipfTheta = 0.0;
    /** Scatter zipfian ranks across the span (hot pages spread out). */
    bool scrambled = true;
    /** Draw seed; fixed per segment so the trace is reproducible. */
    std::uint64_t seed = 1;
};

/**
 * Touch an explicit list of pages (offsets from @p base), in order.
 * The list is owned by the workload and must outlive the stream; this
 * is how exact traces (e.g. the distinct rank pages each edge block
 * references) are replayed without copying them per thread.
 */
struct IndexedTouch
{
    const std::uint32_t *offsets = nullptr;
    std::uint64_t count = 0;
    Vpn base = 0;
    bool write = false;
    SimDuration computePerTouch = 0;
};

/** Pure compute burst. */
struct ComputeSeg
{
    SimDuration ns = 0;
};

/** Arrive at workload barrier `id`. */
struct BarrierSeg
{
    std::uint32_t id = 0;
};

/** Notify the workload that phase `id` was reached. */
struct PhaseSeg
{
    std::uint32_t id = 0;
};

/** One element of a thread's compiled program. */
using Segment = std::variant<SeqTouch, RandTouch, IndexedTouch,
                             ComputeSeg, BarrierSeg, PhaseSeg>;

/** Expands a segment list into an Op stream. */
class PatternStream : public OpStream
{
  public:
    explicit PatternStream(std::vector<Segment> segments);

    bool next(Op &op) override;

    void saveState(Sink &sink) const override { state(*this, sink); }
    void restoreState(Source &src) override { state(*this, src); }

    template <class Self, class Ar>
    static void
    state(Self &self, Ar &ar)
    {
        ar.u64(self.index_);
        ar.u64(self.emitted_);
        bool haveRng = self.rng_.has_value();
        ar.boolean(haveRng);
        if constexpr (Ar::kLoading) {
            if (haveRng)
                self.rng_.emplace(std::uint64_t{1});
            else
                self.rng_.reset();
            // zipf_ is pure function-of-segment state: rebuilt lazily
            // on the next draw, consuming no RNG values.
            self.zipf_.reset();
        }
        if (haveRng)
            Rng::state(*self.rng_, ar);
    }

  private:
    bool advanceSegment();

    /** The construction input, replayed from the workload spec. */
    const std::vector<Segment> segments_;
    std::size_t index_ = 0;
    std::uint64_t emitted_ = 0;
    /** Lazily built generator state for the current RandTouch. */
    std::optional<Rng> rng_;
    /** Pure function of the current segment: rebuilt lazily after a
     *  load resets it. */
    std::unique_ptr<ZipfianGenerator> zipf_;
};

} // namespace pagesim

#endif // PAGESIM_WORKLOAD_ACCESS_PATTERN_HH
