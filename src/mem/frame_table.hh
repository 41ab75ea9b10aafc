/**
 * @file
 * Physical frame table, per-frame metadata, and the reverse map.
 *
 * Per-frame metadata (the analogue of struct page) is stored
 * structure-of-arrays: one flat lane per field, indexed by PFN. The
 * lanes record which (address space, VPN) a frame currently holds —
 * that mapping *is* the reverse map; what the policies pay for is the
 * simulated cost of walking it — plus the intrusive list linkage and
 * the policy-owned classification fields (Clock's list id, MG-LRU's
 * generation and tier).
 *
 * The SoA split is what lets a 64M-frame machine scan at interactive
 * speed: an aging pass touching only `gen` streams 8 bytes per frame
 * instead of dragging a 40+-byte struct through cache, and the
 * allocator's reset touches each lane once. `info()` hands out
 * PageInfoRef/PageInfoView proxies whose reference members preserve
 * the field-access syntax of the old struct, so policy code is
 * unchanged except for declarations.
 *
 * Contract: the intrusive-link lanes (prev/next/listId) may only be
 * mutated by FrameList — pagesim-lint's mut-pageinfo rule enforces
 * this, mirroring mut-pte for PTE flags.
 */

#ifndef PAGESIM_MEM_FRAME_TABLE_HH
#define PAGESIM_MEM_FRAME_TABLE_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "mem/types.hh"
#include "sim/serialize.hh"

namespace pagesim
{

class AddressSpace;

/**
 * Mutable proxy over one frame's SoA lanes ("struct page" view).
 * Members are references into FrameTable's lanes, so `pi.gen = seq`
 * writes the lane directly; the proxy is freely copyable (copies
 * alias the same frame).
 */
struct PageInfoRef
{
    /** Owning address space; nullptr while the frame is free. */
    AddressSpace *&space;
    /** VPN this frame backs (valid while space != nullptr). */
    Vpn &vpn;

    /** Intrusive list links (frame is on at most one policy list). */
    Pfn &prev;
    Pfn &next;
    /** Which policy list the frame is on (policy-defined; 0 = none). */
    std::uint8_t &listId;

    /** MG-LRU: absolute generation sequence number. */
    std::uint64_t &gen;
    /** MG-LRU: tier within the generation (log2 of use count). */
    std::uint8_t &tier;
    /** File-backed page, 0/1 (cached from the VMA at fault time). */
    std::uint8_t &file;
    /** Brought in speculatively, 0/1; cleared on first demand access. */
    std::uint8_t &fromReadahead;

    /**
     * Swap-cache backing: slot whose contents still match this frame.
     * While valid and the PTE stays clean, eviction can drop the page
     * without writing it back (the kernel's swap-cache reuse).
     */
    SwapSlot &backing;
    /** Accesses observed since residency (drives MG-LRU tiers). */
    std::uint32_t &refs;
    /**
     * Memory control group this frame is charged to; kNoMemcg while
     * free or kernel-private (balloon). Written only by Memcg
     * charge/uncharge (pagesim-lint mut-memcg) so the lane and the
     * group's usage counter cannot diverge.
     */
    MemcgId &memcg;

    bool free() const { return space == nullptr; }
};

/** Read-only counterpart of PageInfoRef (const FrameTable access). */
struct PageInfoView
{
    AddressSpace *const &space;
    const Vpn &vpn;
    const Pfn &prev;
    const Pfn &next;
    const std::uint8_t &listId;
    const std::uint64_t &gen;
    const std::uint8_t &tier;
    const std::uint8_t &file;
    const std::uint8_t &fromReadahead;
    const SwapSlot &backing;
    const std::uint32_t &refs;
    const MemcgId &memcg;

    bool free() const { return space == nullptr; }
};

/**
 * The machine's physical memory: a fixed set of frames with a free
 * list and the per-frame metadata lanes. The lanes are sized once at
 * construction and never reallocate, so proxies stay valid for the
 * table's lifetime.
 */
class FrameTable
{
  public:
    explicit
    FrameTable(std::uint32_t nframes)
        : space_(nframes, nullptr), vpn_(nframes, 0),
          prev_(nframes, kInvalidPfn), next_(nframes, kInvalidPfn),
          listId_(nframes, 0), gen_(nframes, 0), tier_(nframes, 0),
          file_(nframes, 0), fromReadahead_(nframes, 0),
          backing_(nframes, kInvalidSlot), refs_(nframes, 0),
          memcg_(nframes, kNoMemcg)
    {
        freeList_.reserve(nframes);
        // Allocate ascending: push in reverse so pop_back yields pfn 0
        // first, giving deterministic, realistic low-to-high placement.
        for (std::uint32_t i = nframes; i > 0; --i)
            freeList_.push_back(i - 1);
    }

    std::uint32_t totalFrames() const
    {
        return static_cast<std::uint32_t>(space_.size());
    }

    std::uint32_t freeFrames() const
    {
        return static_cast<std::uint32_t>(freeList_.size());
    }

    std::uint32_t usedFrames() const
    {
        return totalFrames() - freeFrames();
    }

    /** Grab a free frame; kInvalidPfn when memory is exhausted. */
    Pfn
    allocate(AddressSpace *space, Vpn vpn, bool file)
    {
        if (freeList_.empty())
            return kInvalidPfn;
        const Pfn pfn = freeList_.back();
        freeList_.pop_back();
        assert(space_[pfn] == nullptr);
        resetLanes(pfn, space, vpn, file);
        return pfn;
    }

    /** Return a frame to the free list. */
    void
    release(Pfn pfn)
    {
        assert(space_[pfn] != nullptr);
        assert(listId_[pfn] == 0 && "frame still on a policy list");
        assert(memcg_[pfn] == kNoMemcg && "frame still charged");
        space_[pfn] = nullptr;
        freeList_.push_back(pfn);
    }

    PageInfoRef
    info(Pfn pfn)
    {
        assert(pfn < space_.size());
        return PageInfoRef{space_[pfn],   vpn_[pfn],  prev_[pfn],
                           next_[pfn],    listId_[pfn], gen_[pfn],
                           tier_[pfn],    file_[pfn],
                           fromReadahead_[pfn], backing_[pfn],
                           refs_[pfn],    memcg_[pfn]};
    }

    PageInfoView
    info(Pfn pfn) const
    {
        assert(pfn < space_.size());
        return PageInfoView{space_[pfn],   vpn_[pfn],  prev_[pfn],
                            next_[pfn],    listId_[pfn], gen_[pfn],
                            tier_[pfn],    file_[pfn],
                            fromReadahead_[pfn], backing_[pfn],
                            refs_[pfn],    memcg_[pfn]};
    }

    /**
     * Reverse-map lookup: frame -> (space, vpn). The *information* is
     * free in the simulator; the cost of the kernel's rmap pointer
     * chase is charged separately by whoever walks it (see
     * MmCosts::rmapWalk).
     */
    PageInfoView rmap(Pfn pfn) const { return info(pfn); }

    /** Audit hook: the raw free list (order is allocator policy). */
    const std::vector<Pfn> &freeList() const { return freeList_; }

    /**
     * Checkpoint every lane. The space_ lane holds raw pointers, so it
     * travels as ids in @p spaces (RefTable::kNullRef for free or
     * unowned frames); everything else moves via bulk podVec. The free
     * list is captured verbatim — its ORDER is allocator state
     * (pop_back yields the next pfn).
     */
    template <class Self, class Ar>
    static void
    state(Self &self, Ar &ar, const RefTable<AddressSpace> &spaces)
    {
        if constexpr (!Ar::kLoading) {
            // The lane footprint is known exactly (13 count headers
            // plus raw lane bytes); reserving it up front keeps the
            // capture at one allocation instead of geometric re-copies
            // of a multi-hundred-MB buffer. The byte stream is
            // unchanged.
            const auto lane = [](const auto &v) {
                return 8 + v.size() * sizeof(v[0]);
            };
            ar.reserve(ar.size() + 8 + self.space_.size() * 4 +
                       lane(self.vpn_) + lane(self.prev_) +
                       lane(self.next_) + lane(self.listId_) +
                       lane(self.gen_) + lane(self.tier_) +
                       lane(self.file_) + lane(self.fromReadahead_) +
                       lane(self.backing_) + lane(self.refs_) +
                       lane(self.memcg_) + lane(self.freeList_));
        }
        ar.ref(self.space_, spaces);
        ar.podVec(self.vpn_);
        ar.podVec(self.prev_);
        ar.podVec(self.next_);
        ar.podVec(self.listId_);
        ar.podVec(self.gen_);
        ar.podVec(self.tier_);
        ar.podVec(self.file_);
        ar.podVec(self.fromReadahead_);
        ar.podVec(self.backing_);
        ar.podVec(self.refs_);
        ar.podVec(self.memcg_);
        ar.podVec(self.freeList_);
    }

  private:
    /**
     * Reset every lane of @p pfn for a new tenant — the SoA
     * equivalent of the old aggregate `pi = PageInfo{...}` reset.
     * Keep in lockstep with the lane members: a lane missing here
     * would leak state from the frame's previous tenant.
     */
    void
    resetLanes(Pfn pfn, AddressSpace *space, Vpn vpn, bool file)
    {
        space_[pfn] = space;
        vpn_[pfn] = vpn;
        prev_[pfn] = kInvalidPfn;
        next_[pfn] = kInvalidPfn;
        listId_[pfn] = 0;
        gen_[pfn] = 0;
        tier_[pfn] = 0;
        file_[pfn] = file ? 1 : 0;
        fromReadahead_[pfn] = 0;
        backing_[pfn] = kInvalidSlot;
        refs_[pfn] = 0;
        // release() asserts the lane was uncharged, so this is only a
        // reset-contract formality (the lane name memcg_ is the raw
        // storage, not the PageInfo member mut-memcg guards).
        memcg_[pfn] = kNoMemcg;
    }

    /** Per-frame metadata lanes (structure-of-arrays, PFN-indexed). */
    std::vector<AddressSpace *> space_;
    std::vector<Vpn> vpn_;
    std::vector<Pfn> prev_;
    std::vector<Pfn> next_;
    std::vector<std::uint8_t> listId_;
    std::vector<std::uint64_t> gen_;
    std::vector<std::uint8_t> tier_;
    std::vector<std::uint8_t> file_;
    std::vector<std::uint8_t> fromReadahead_;
    std::vector<SwapSlot> backing_;
    std::vector<std::uint32_t> refs_;
    std::vector<MemcgId> memcg_;
    std::vector<Pfn> freeList_;
};

/**
 * Intrusive doubly-linked list over frames.
 *
 * Uses the prev/next/listId lanes, so membership moves are O(1) — the
 * property the paper leans on when arguing generation-count increases
 * are cheap ("moving page metadata between generation lists is an O(1)
 * operation", Sec. V-B). A frame may be on at most one FrameList; the
 * @p list_id tags membership for debugging and policy queries.
 */
class FrameList
{
  public:
    FrameList(FrameTable &frames, std::uint8_t list_id)
        : frames_(&frames), listId_(list_id)
    {
        assert(list_id != 0);
    }

    std::uint64_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Pfn head() const { return head_; }
    Pfn tail() const { return tail_; }
    std::uint8_t listId() const { return listId_; }

    /** Add to the head (most-recently-used end). */
    void
    pushFront(Pfn pfn)
    {
        const PageInfoRef pi = frames_->info(pfn);
        assert(pi.listId == 0);
        pi.listId = listId_;
        pi.prev = kInvalidPfn;
        pi.next = head_;
        if (head_ != kInvalidPfn)
            frames_->info(head_).prev = pfn;
        head_ = pfn;
        if (tail_ == kInvalidPfn)
            tail_ = pfn;
        ++size_;
    }

    /** Add to the tail (least-recently-used end). */
    void
    pushBack(Pfn pfn)
    {
        const PageInfoRef pi = frames_->info(pfn);
        assert(pi.listId == 0);
        pi.listId = listId_;
        pi.next = kInvalidPfn;
        pi.prev = tail_;
        if (tail_ != kInvalidPfn)
            frames_->info(tail_).next = pfn;
        tail_ = pfn;
        if (head_ == kInvalidPfn)
            head_ = pfn;
        ++size_;
    }

    /** Remove an arbitrary member. */
    void
    remove(Pfn pfn)
    {
        const PageInfoRef pi = frames_->info(pfn);
        assert(pi.listId == listId_);
        if (pi.prev != kInvalidPfn)
            frames_->info(pi.prev).next = pi.next;
        else
            head_ = pi.next;
        if (pi.next != kInvalidPfn)
            frames_->info(pi.next).prev = pi.prev;
        else
            tail_ = pi.prev;
        pi.prev = pi.next = kInvalidPfn;
        pi.listId = 0;
        --size_;
    }

    /** Remove and return the tail; kInvalidPfn if empty. */
    Pfn
    popBack()
    {
        if (tail_ == kInvalidPfn)
            return kInvalidPfn;
        const Pfn pfn = tail_;
        remove(pfn);
        return pfn;
    }

    /** Remove and return the head; kInvalidPfn if empty. */
    Pfn
    popFront()
    {
        if (head_ == kInvalidPfn)
            return kInvalidPfn;
        const Pfn pfn = head_;
        remove(pfn);
        return pfn;
    }

    /** True if @p pfn is currently a member of *this* list. */
    bool
    contains(Pfn pfn) const
    {
        return frames_->info(pfn).listId == listId_;
    }

    /** Outcome of an auditWalk() over the intrusive links. */
    struct WalkCheck
    {
        /** Members reached walking head -> tail. */
        std::uint64_t count = 0;
        /** Links, listId tags, and head/tail anchors all coherent. */
        bool linksOk = true;
        /** First frame at which corruption was observed. */
        Pfn firstBad = kInvalidPfn;
    };

    /**
     * Audit hook: walk head -> tail via the intrusive next pointers,
     * verifying each member's listId tag and prev back-pointer, that
     * the walk terminates at tail(), and that it does so within
     * totalFrames() hops (cycle guard). Does not touch size_, so a
     * size/membership divergence is observable by comparing the
     * returned count against size().
     */
    WalkCheck
    auditWalk() const
    {
        WalkCheck wc;
        Pfn prev = kInvalidPfn;
        Pfn cur = head_;
        const std::uint64_t cap = frames_->totalFrames();
        while (cur != kInvalidPfn) {
            if (wc.count >= cap) {
                // More hops than frames exist: a cycle.
                wc.linksOk = false;
                wc.firstBad = cur;
                return wc;
            }
            const PageInfoRef pi = frames_->info(cur);
            if (pi.listId != listId_ || pi.prev != prev) {
                wc.linksOk = false;
                wc.firstBad = cur;
                return wc;
            }
            ++wc.count;
            prev = cur;
            cur = pi.next;
        }
        if (tail_ != prev) {
            wc.linksOk = false;
            wc.firstBad = tail_;
        }
        return wc;
    }

    /**
     * Checkpoint the list anchors. The member links live in the
     * FrameTable lanes (captured by FrameTable::state); only the
     * head/tail/size anchors are per-list state.
     */
    template <class Self, class Ar>
    static void
    state(Self &self, Ar &ar)
    {
        ar.u32(self.head_);
        ar.u32(self.tail_);
        ar.u64(self.size_);
    }

  private:
    FrameTable *frames_;
    const std::uint8_t listId_;

    Pfn head_ = kInvalidPfn;
    Pfn tail_ = kInvalidPfn;
    std::uint64_t size_ = 0;
};

} // namespace pagesim

#endif // PAGESIM_MEM_FRAME_TABLE_HH
