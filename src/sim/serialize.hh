/**
 * @file
 * Binary serialization for simulator checkpoints.
 *
 * Every checkpointable class has ONE state body that both archives
 * drive:
 *
 *     template <class Self, class Ar>
 *     static void
 *     state(Self &self, Ar &ar)
 *     {
 *         ar.u64(self.count_);
 *         ar.podVec(self.lane_);
 *     }
 *
 * Saving runs it with Self = const T and a Sink, which appends each
 * field; restoring runs it with Self = T and a Source, which reads
 * each field back. There is one field list, walked in one order, so a
 * save and a restore cannot drift apart. Sink and Source offer the
 * same verbs, each taking the field by reference: u8, u32, u64, f64,
 * boolean, podVec, enum8 (an enum byte, range-checked on load),
 * records (a counted sequence of sub-fields) and ref (a pointer, or a
 * lane of pointers, mapped through an ordered RefTable). Checks that
 * only make sense on load sit in the body behind
 * `if constexpr (Ar::kLoading)` and reject the image with ar.fail().
 * A class reached through a virtual base keeps saveState/restoreState
 * as one-line forwarders into its state body (see virtualState()).
 *
 * Neither archive throws. A Source that runs past its buffer, meets an
 * enum byte out of range or an unknown ref id latches ok() == false
 * and leaves that destination unchanged; every later read is a no-op,
 * so checkpoint loading validates once at the end instead of wrapping
 * every read. podVec() moves whole SoA lanes with one memcpy, which is
 * what keeps 64M-page snapshots at memory-bandwidth speed.
 *
 * The encoding is deliberately dumb — fixed-width, no varints, no
 * tags — because checkpoints are fingerprinted (FNV-1a) and
 * version-gated at the section level (see harness/checkpoint.hh);
 * the byte stream only needs to be deterministic, not evolvable.
 */

#ifndef PAGESIM_SIM_SERIALIZE_HH
#define PAGESIM_SIM_SERIALIZE_HH

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

namespace pagesim
{

/** FNV-1a offset basis / prime (64-bit). */
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** FNV-1a over a byte range, chainable via @p h. */
inline std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t h = kFnvOffset)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** One byte range for fnv1aEach. */
struct ByteSpan
{
    const void *data = nullptr;
    std::size_t size = 0;
};

/**
 * fnv1a() of every span, in order: element i equals
 * fnv1a(spans[i].data, spans[i].size). One FNV-1a chain is a serial
 * multiply per byte, so it runs at the multiplier's latency; here two
 * independent chains advance in one loop. Lane A walks the longest
 * span, lane B every other span in turn, and whichever lane outlasts
 * the other finishes alone. A checkpoint image's two big sections,
 * frames and spaces, thus share one pass (see harness/checkpoint.cc).
 */
inline std::vector<std::uint64_t>
fnv1aEach(const std::vector<ByteSpan> &spans)
{
    std::vector<std::uint64_t> out(spans.size());
    if (spans.empty())
        return out;
    const std::size_t longest = static_cast<std::size_t>(
        std::max_element(spans.begin(), spans.end(),
                         [](const ByteSpan &x, const ByteSpan &y) {
                             return x.size < y.size;
                         }) -
        spans.begin());
    const auto *a = static_cast<const unsigned char *>(spans[longest].data);
    std::size_t aLeft = spans[longest].size;
    std::uint64_t ha = kFnvOffset;
    for (std::size_t j = 0; j < spans.size(); ++j) {
        if (j == longest)
            continue;
        const auto *b = static_cast<const unsigned char *>(spans[j].data);
        const std::size_t both = std::min(spans[j].size, aLeft);
        std::uint64_t hb = kFnvOffset;
        for (std::size_t i = 0; i < both; ++i) {
            ha = (ha ^ a[i]) * kFnvPrime;
            hb = (hb ^ b[i]) * kFnvPrime;
        }
        a += both;
        aLeft -= both;
        out[j] = fnv1a(b + both, spans[j].size - both, hb);
    }
    out[longest] = fnv1a(a, aLeft, ha);
    return out;
}

/** FNV-1a over a NUL-terminated string (used for config hashing). */
inline std::uint64_t
fnv1aStr(const char *s, std::uint64_t h = kFnvOffset)
{
    return fnv1a(s, std::strlen(s), h);
}

/**
 * Ordered pointer table for the ref verb. Entry i travels as id i, a
 * null pointer as kNullRef, and the optional @p extra entry — one
 * that is not part of the ordered list, such as the MemoryManager's
 * balloon space beside the rig's spaces — as kExtraRef. Save and
 * restore build the table from the same construction, which a restore
 * rig replays, so an id names the same object on both sides.
 */
template <class T>
class RefTable
{
  public:
    static constexpr std::uint32_t kNullRef = 0xFFFFFFFFu;
    static constexpr std::uint32_t kExtraRef = 0xFFFFFFFEu;

    explicit RefTable(std::vector<T *> entries, T *extra = nullptr)
        : entries_(std::move(entries)), extra_(extra)
    {
    }

    /** Id of @p p; a linear scan, so lane callers memoize. */
    std::uint32_t
    idOf(const T *p) const
    {
        if (p == nullptr)
            return kNullRef;
        if (p == extra_)
            return kExtraRef;
        for (std::size_t i = 0; i < entries_.size(); ++i)
            if (entries_[i] == p)
                return static_cast<std::uint32_t>(i);
        assert(false && "pointer outside its RefTable");
        return kNullRef;
    }

    /** Set @p out to the entry @p id names; false for an unknown id. */
    bool
    at(std::uint32_t id, T *&out) const
    {
        if (id < entries_.size())
            out = entries_[id];
        else if (id == kNullRef)
            out = nullptr;
        else if (id == kExtraRef && extra_ != nullptr)
            out = extra_;
        else
            return false;
        return true;
    }

  private:
    std::vector<T *> entries_;
    T *extra_;
};

/** Append-only little-endian byte buffer: the saving archive. */
class Sink
{
  public:
    static constexpr bool kLoading = false;

    void
    u8(const std::uint8_t &v)
    {
        buf_.push_back(v);
    }

    void
    u32(const std::uint32_t &v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(const std::uint64_t &v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void f64(const double &v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void boolean(const bool &v) { u8(v ? 1 : 0); }

    /** An enum as one byte; @p last is its highest enumerator. */
    template <typename E>
    void
    enum8(const E &v, E last)
    {
        static_assert(std::is_enum_v<E>);
        assert(v <= last);
        (void)last;
        u8(static_cast<std::uint8_t>(v));
    }

    /**
     * A whole POD array: element count then raw bytes. The single
     * memcpy (not a per-element loop) is the checkpoint throughput
     * path for SoA metadata lanes.
     */
    template <typename T>
    void
    podVec(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        u64(v.size());
        if (!v.empty())
            bytes(v.data(), v.size() * sizeof(T));
    }

    /** A counted sequence: u64 count, then @p each on every element. */
    template <typename V, typename F>
    void
    records(const V &v, F &&each)
    {
        u64(v.size());
        for (const auto &e : v)
            each(e);
    }

    /** One pointer, as its u32 id in @p table. */
    template <typename T>
    void
    ref(T *const &p, const RefTable<T> &table)
    {
        u32(table.idOf(p));
    }

    /**
     * A lane of pointers, encoded exactly as podVec of their u32 ids.
     * Ids are memoized per distinct pointer (pointer EQUALITY only, so
     * determinism is untouched) with a last-pointer fast path for the
     * contiguous runs allocation order yields: a table scan per
     * element is O(lane x table) and held frame-table capture near
     * 0.5 GB/s.
     */
    template <typename T>
    void
    ref(const std::vector<T *> &lane, const RefTable<T> &table)
    {
        u64(lane.size());
        const std::size_t at = buf_.size();
        buf_.resize(at + lane.size() * sizeof(std::uint32_t));
        std::uint8_t *out = buf_.data() + at;
        std::vector<std::pair<const T *, std::uint32_t>> memo;
        const T *last = nullptr;
        std::uint32_t lastId = table.idOf(nullptr);
        for (const T *p : lane) {
            if (p != last) {
                const auto hit = std::find_if(
                    memo.begin(), memo.end(),
                    [p](const auto &m) { return m.first == p; });
                if (hit != memo.end()) {
                    lastId = hit->second;
                } else {
                    lastId = table.idOf(p);
                    memo.emplace_back(p, lastId);
                }
                last = p;
            }
            std::memcpy(out, &lastId, sizeof(lastId));
            out += sizeof(lastId);
        }
    }

    /** Raw bytes with no length prefix (image framing, hashing). */
    void
    bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + len);
    }

    /**
     * Capacity hint for bulk captures. Growing a multi-hundred-MB
     * buffer by geometric doubling re-copies the accumulated bytes
     * several times over; a caller that knows its footprint (SoA
     * lane sums, section payload totals) reserves once instead.
     */
    void reserve(std::size_t n) { buf_.reserve(n); }

    const std::vector<std::uint8_t> &data() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

  private:
    std::vector<std::uint8_t> buf_;
};

/**
 * Bounds-checked reader over a byte range: the restoring archive. A
 * failed read latches ok() == false and leaves its destination as it
 * was; every read after that is a no-op. Callers validate once after
 * decoding.
 */
class Source
{
  public:
    static constexpr bool kLoading = true;

    Source(const std::uint8_t *data, std::size_t len)
        : p_(data), len_(len)
    {
    }

    void
    u8(std::uint8_t &v)
    {
        if (take(1))
            v = p_[off_ - 1];
    }

    void
    u32(std::uint32_t &v)
    {
        if (!take(4))
            return;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(p_[off_ - 4 + i]) << (8 * i);
    }

    void
    u64(std::uint64_t &v)
    {
        if (!take(8))
            return;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(p_[off_ - 8 + i]) << (8 * i);
    }

    void
    f64(double &v)
    {
        std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
        u64(bits);
        v = std::bit_cast<double>(bits);
    }

    void
    boolean(bool &v)
    {
        std::uint8_t b = v ? 1 : 0;
        u8(b);
        v = b != 0;
    }

    /** An enum byte; a value above @p last rejects the image. */
    template <typename E>
    void
    enum8(E &v, E last)
    {
        static_assert(std::is_enum_v<E>);
        if (!take(1))
            return;
        const std::uint8_t b = p_[off_ - 1];
        if (b > static_cast<std::uint8_t>(last)) {
            ok_ = false;
            return;
        }
        v = static_cast<E>(b);
    }

    template <typename T>
    void
    podVec(std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::uint64_t n = 0;
        u64(n);
        // Reject counts the remaining bytes cannot hold before
        // resizing: a corrupt length must not trigger a huge
        // allocation.
        if (!ok_ || n > remaining() / sizeof(T)) {
            ok_ = false;
            return;
        }
        v.resize(static_cast<std::size_t>(n));
        if (n != 0) {
            std::memcpy(v.data(), p_ + off_, n * sizeof(T));
            off_ += n * sizeof(T);
        }
    }

    /**
     * A counted sequence: the count is bounded by the bytes left (an
     * element takes at least one), then @p each reads every element.
     */
    template <typename V, typename F>
    void
    records(V &v, F &&each)
    {
        std::uint64_t n = 0;
        u64(n);
        if (!ok_ || n > remaining()) {
            ok_ = false;
            return;
        }
        v.clear();
        v.resize(static_cast<std::size_t>(n));
        for (auto &e : v) {
            if (!ok_)
                return;
            each(e);
        }
    }

    /** One pointer from its u32 id; an unknown id rejects the image. */
    template <typename T>
    void
    ref(T *&p, const RefTable<T> &table)
    {
        std::uint32_t id = 0;
        u32(id);
        if (ok_ && !table.at(id, p))
            ok_ = false;
    }

    /** A lane of pointers written by Sink::ref(lane, table). */
    template <typename T>
    void
    ref(std::vector<T *> &lane, const RefTable<T> &table)
    {
        std::uint64_t n = 0;
        u64(n);
        if (!ok_ || n > remaining() / sizeof(std::uint32_t)) {
            ok_ = false;
            return;
        }
        lane.resize(static_cast<std::size_t>(n));
        for (T *&p : lane) {
            std::uint32_t id;
            std::memcpy(&id, p_ + off_, sizeof(id));
            off_ += sizeof(id);
            if (!table.at(id, p)) {
                ok_ = false;
                return;
            }
        }
    }

    /**
     * The next @p n bytes as a Source of their own (sections and
     * length-prefixed sub-records). Past the end it latches !ok() and
     * returns an already-failed Source.
     */
    Source
    slice(std::size_t n)
    {
        if (!take(n)) {
            Source failed(nullptr, 0);
            failed.ok_ = false;
            return failed;
        }
        return Source(p_ + off_ - n, n);
    }

    /** Reject the image: a load-side check in a state body failed. */
    void fail() { ok_ = false; }

    /** False once any read ran past the end or met a bad value. */
    bool ok() const { return ok_; }

    /** True when every byte has been consumed (and no read failed). */
    bool exhausted() const { return ok_ && off_ == len_; }

    std::size_t remaining() const { return len_ - off_; }

    /** The whole range this Source reads (not just the unread rest). */
    const std::uint8_t *data() const { return p_; }
    std::size_t size() const { return len_; }

  private:
    bool
    take(std::size_t n)
    {
        if (!ok_ || len_ - off_ < n) {
            ok_ = false;
            return false;
        }
        off_ += n;
        return true;
    }

    const std::uint8_t *p_;
    std::size_t len_;
    std::size_t off_ = 0;
    bool ok_ = true;
};

/**
 * Drive an object reached through a virtual base (a policy, a swap
 * device, an op stream, a workload, an actor) through its
 * saveState/restoreState forwarders, which run the concrete class's
 * state body.
 */
template <class T, class Ar>
void
virtualState(T &obj, Ar &ar)
{
    if constexpr (Ar::kLoading)
        obj.restoreState(ar);
    else
        obj.saveState(ar);
}

} // namespace pagesim

#endif // PAGESIM_SIM_SERIALIZE_HH
