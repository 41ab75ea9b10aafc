/**
 * @file
 * The operation vocabulary workload threads execute.
 *
 * Workloads compile to per-thread streams of Ops; the WorkThread actor
 * interprets them against the MemoryManager. Keeping the vocabulary
 * tiny (compute, touch, barrier, latency markers) lets very different
 * applications — staged SQL, iterative graph kernels, request-serving
 * KV stores — share one execution engine.
 */

#ifndef PAGESIM_WORKLOAD_OPS_HH
#define PAGESIM_WORKLOAD_OPS_HH

#include <cstdint>

#include "mem/types.hh"
#include "sim/serialize.hh"
#include "sim/types.hh"

namespace pagesim
{

/** One workload-thread operation. */
struct Op
{
    enum class Kind : std::uint8_t
    {
        Compute,      ///< burn `compute` ns of CPU
        Touch,        ///< memory access to `vpn` (write if `write`)
        FdTouch,      ///< buffered-I/O access to `vpn` (tier path)
        Barrier,      ///< synchronize on workload barrier `id`
        RequestStart, ///< begin latency measurement, class `id`
        RequestEnd,   ///< end latency measurement, class `id`
        Phase,        ///< notify the workload phase `id` was reached
    };

    Kind kind = Kind::Compute;
    bool write = false;
    std::uint32_t id = 0;
    Vpn vpn = 0;
    SimDuration compute = 0;

    static Op
    makeCompute(SimDuration ns)
    {
        Op op;
        op.kind = Kind::Compute;
        op.compute = ns;
        return op;
    }

    static Op
    makeTouch(Vpn vpn, bool write)
    {
        Op op;
        op.kind = Kind::Touch;
        op.vpn = vpn;
        op.write = write;
        return op;
    }

    static Op
    makeFdTouch(Vpn vpn, bool write)
    {
        Op op;
        op.kind = Kind::FdTouch;
        op.vpn = vpn;
        op.write = write;
        return op;
    }

    static Op
    makeBarrier(std::uint32_t id)
    {
        Op op;
        op.kind = Kind::Barrier;
        op.id = id;
        return op;
    }

    static Op
    makeRequestStart(std::uint32_t klass)
    {
        Op op;
        op.kind = Kind::RequestStart;
        op.id = klass;
        return op;
    }

    static Op
    makeRequestEnd(std::uint32_t klass)
    {
        Op op;
        op.kind = Kind::RequestEnd;
        op.id = klass;
        return op;
    }

    static Op
    makePhase(std::uint32_t id)
    {
        Op op;
        op.kind = Kind::Phase;
        op.id = id;
        return op;
    }

    /**
     * Field-wise serialization: Op has padding bytes that are
     * indeterminate after the makeX() builders, so raw-byte capture
     * would poison checkpoint fingerprints.
     */
    template <class Self, class Ar>
    static void
    state(Self &self, Ar &ar)
    {
        ar.enum8(self.kind, Kind::Phase);
        ar.boolean(self.write);
        ar.u32(self.id);
        ar.u64(self.vpn);
        ar.u64(self.compute);
    }
};

/** Lazy per-thread producer of Ops. */
class OpStream
{
  public:
    virtual ~OpStream() = default;

    /** Produce the next op; false when the thread's work is done. */
    virtual bool next(Op &op) = 0;

    /**
     * Checkpoint the stream's cursor state. The compiled program
     * itself (segments, request mix) is rebuilt from the workload
     * seed at restore time; only the position within it is captured.
     * The default is for streams with no mutable state.
     */
    virtual void saveState(Sink &) const {}

    /** Restore state captured by saveState(). */
    virtual void restoreState(Source &) {}
};

} // namespace pagesim

#endif // PAGESIM_WORKLOAD_OPS_HH
