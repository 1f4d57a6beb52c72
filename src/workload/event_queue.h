/**
 * @file
 * Min-queue of (time, page) access events, the innermost data
 * structure of the whole simulator: every simulated page access pops
 * one event and pushes the next, so fleet steps spend most of their
 * cycles here.
 *
 * The queue is a calendar wheel (Brown, CACM 1988) with one slot per
 * simulated second, sized for how the renewal process reschedules:
 * hot, warm and active-diurnal gaps are seconds to a few minutes, and
 * every rescheduled access lands at least 1 s after the access that
 * scheduled it.
 *
 *  - The wheel covers kWheelSpan seconds [base, base + kWheelSpan).
 *    Each slot is an intrusive singly linked list threaded through a
 *    per-page u32 link array, so queueing an event is two stores.
 *  - Events at or past base + kWheelSpan (cold, frozen and dormant
 *    diurnal pages) go to a 4-ary min-heap of packed keys.
 *  - drain_until() walks the seconds in order. For each second it
 *    gathers the slot plus the heap events due then, sorts them by
 *    page and hands them over. When the wheel is empty it jumps to
 *    the heap top, so cost follows events, not elapsed seconds.
 *
 * Events pack into one 64-bit key (time in the high 32 bits, page in
 * the low 32), whose integer order is the lexicographic (time, page)
 * order. Each page has at most one queued event, so keys are unique
 * and drain_until() pops them in exactly that total order, whatever
 * the wheel/heap split. Checkpoints therefore store the set of keys
 * (in any order) rather than any internal layout.
 */

#ifndef SDFM_WORKLOAD_EVENT_QUEUE_H
#define SDFM_WORKLOAD_EVENT_QUEUE_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "ckpt/checkpoint.h"
#include "mem/page.h"
#include "util/logging.h"
#include "util/sim_time.h"

namespace sdfm {

/** Calendar wheel of packed (time, page) access events. */
class EventQueue
{
  public:
    /** Seconds the wheel spans (one slot each). Later events go to
     *  the overflow heap. A power of two, so slots index by mask. */
    static constexpr SimTime kWheelSpan = 512;

    /** Pack (time, page) into the queue's key order.
     *  @p t must fit in 32 bits (~136 simulated years). */
    static std::uint64_t
    make_key(SimTime t, PageId page)
    {
        SDFM_ASSERT(t >= 0 && t <= 0xffffffffLL);
        return (static_cast<std::uint64_t>(t) << 32) | page;
    }

    /** Empty the queue for pages [0, @p num_pages), with the wheel
     *  starting at @p base (no event may be queued before it). */
    void
    reset(std::uint32_t num_pages, SimTime base)
    {
        link_.assign(num_pages, kNil);
        heads_.fill(kNil);
        wheel_size_ = 0;
        base_ = base;
        heap_.clear();
        marks_.assign((num_pages + 63) / 64, 0);
    }

    /** Queue an access to @p page at time @p t >= the wheel base.
     *  The page must not already be queued. */
    void
    emplace(SimTime t, PageId page)
    {
        SDFM_ASSERT(t >= base_ && page < link_.size());
        insert(make_key(t, page));
    }

    bool empty() const { return size() == 0; }
    std::size_t size() const { return wheel_size_ + heap_.size(); }

    /**
     * The key set: a count, then one packed key per event (wheel
     * slots in time order, then the heap array). Streams straight
     * into @p s.
     */
    void
    ckpt_save(Serializer &s) const
    {
        s.put_u64(size());
        for (SimTime t = base_; t < base_ + kWheelSpan; ++t) {
            const std::uint64_t time_bits = static_cast<std::uint64_t>(t)
                                            << 32;
            for (PageId p = heads_[slot(t)]; p != kNil; p = link_[p])
                s.put_u64(time_bits | p);
        }
        for (std::uint64_t key : heap_)
            s.put_u64(key);
    }

    /**
     * Rebuild from a key set for pages [0, @p num_pages) in O(n).
     * Keys may come in any order; the wheel base becomes the earliest
     * key's time. Returns false on a page out of range or a page
     * listed twice (which would otherwise tie a slot list into a
     * cycle).
     */
    bool
    ckpt_load(Deserializer &d, std::uint32_t num_pages)
    {
        std::size_t n = d.get_size(num_pages, 8);
        if (!d.ok())
            return false;
        link_.assign(num_pages, kNil);
        heads_.fill(kNil);
        wheel_size_ = 0;
        heap_.clear();
        heap_.reserve(n);
        // marks_ doubles as the seen-page bitmap.
        marks_.assign((num_pages + 63) / 64, 0);
        SimTime base = 0xffffffffLL;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t key = d.get_u64();
            heap_.push_back(key);
            PageId page = key_page(key);
            if (page >= num_pages)
                return false;
            std::uint64_t bit = std::uint64_t{1} << (page % 64);
            if (marks_[page / 64] & bit)
                return false;
            marks_[page / 64] |= bit;
            base = std::min(base, key_time(key));
        }
        if (!d.ok())
            return false;
        std::fill(marks_.begin(), marks_.end(), 0);
        base_ = n > 0 ? base : 0;
        // Partition in place: wheel events into their slots, the rest
        // compacted to the front of heap_, then heapified bottom-up.
        std::size_t kept = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t key = heap_[i];
            if (key_time(key) - base_ < kWheelSpan)
                link_front(key);
            else
                heap_[kept++] = key;
        }
        heap_.resize(kept);
        if (heap_.capacity() > 2 * kept)
            heap_.shrink_to_fit();
        if (kept > 1) {
            for (std::size_t i = (kept - 2) / kArity + 1; i-- > 0;)
                sift_down(i, heap_[i]);
        }
        return true;
    }

    /**
     * Pop every event earlier than @p end, in (time, page) order,
     * calling handler(t, page) for each. The handler returns the
     * event's replacement key (from make_key, for the same page) to
     * reschedule its page, or 0 to retire it. A replacement must be
     * at least 1 s after t: that keeps every event of second t in
     * the batch gathered for it, which is what makes the pop order
     * exact. The queue asserts it.
     *
     * @return Number of events handled.
     */
    template <typename Handler>
    std::uint64_t
    drain_until(SimTime end, Handler &&handler)
    {
        std::uint64_t handled = 0;
        for (;;) {
            SimTime t = base_;
            if (wheel_size_ == 0) {
                if (heap_.empty())
                    break;
                t = key_time(heap_.front());
            }
            if (t >= end)
                break;
            PageId &head = heads_[slot(t)];
            due_.clear();
            PageId lo = kNil;
            PageId hi = 0;
            for (PageId p = head; p != kNil; p = link_[p]) {
                due_.push_back(p);
                lo = std::min(lo, p);
                hi = std::max(hi, p);
            }
            head = kNil;
            wheel_size_ -= due_.size();
            const std::uint64_t next_second = make_key(t + 1, 0);
            while (!heap_.empty() && heap_.front() < next_second) {
                const PageId p = key_page(heap_.front());
                due_.push_back(p);
                lo = std::min(lo, p);
                hi = std::max(hi, p);
                pop_heap();
            }
            base_ = t + 1;
            if (due_.empty())
                continue;
            auto dispatch = [&](PageId page) {
                const std::uint64_t next = handler(t, page);
                if (next != 0) {
                    SDFM_ASSERT(next >= next_second &&
                                key_page(next) == page);
                    insert(next);
                }
            };
            // Page order: a dense batch is marked in a bitmap and
            // read back in order; a sparse one is sorted.
            const std::size_t first_word = lo / 64;
            const std::size_t last_word = hi / 64;
            if (last_word - first_word < kDenseWordsPerEvent * due_.size()) {
                for (PageId p : due_)
                    marks_[p / 64] |= std::uint64_t{1} << (p % 64);
                for (std::size_t w = first_word; w <= last_word; ++w) {
                    std::uint64_t bits = marks_[w];
                    marks_[w] = 0;
                    while (bits != 0) {
                        dispatch(static_cast<PageId>(
                            w * 64 + static_cast<std::size_t>(
                                         std::countr_zero(bits))));
                        bits &= bits - 1;
                    }
                }
            } else {
                std::sort(due_.begin(), due_.end());
                for (PageId page : due_)
                    dispatch(page);
            }
            handled += due_.size();
        }
        return handled;
    }

  private:
    static constexpr std::size_t kArity = 4;
    static constexpr PageId kNil = 0xffffffffu;
    /** A batch is read back through the bitmap when its page span
     *  covers fewer than this many bitmap words per event. */
    static constexpr std::size_t kDenseWordsPerEvent = 4;

    static SimTime
    key_time(std::uint64_t key)
    {
        return static_cast<SimTime>(key >> 32);
    }

    static PageId
    key_page(std::uint64_t key)
    {
        return static_cast<PageId>(key & 0xffffffffu);
    }

    static std::size_t
    slot(SimTime t)
    {
        return static_cast<std::size_t>(t & (kWheelSpan - 1));
    }

    void
    link_front(std::uint64_t key)
    {
        const PageId page = key_page(key);
        PageId &head = heads_[slot(key_time(key))];
        link_[page] = head;
        head = page;
        ++wheel_size_;
    }

    /** Queue @p key, whose time is at or after the wheel base. */
    void
    insert(std::uint64_t key)
    {
        if (key_time(key) - base_ < kWheelSpan) {
            link_front(key);
        } else {
            heap_.push_back(key);
            sift_up(heap_.size() - 1);
        }
    }

    void
    sift_up(std::size_t i)
    {
        std::uint64_t key = heap_[i];
        while (i > 0) {
            std::size_t parent = (i - 1) / kArity;
            if (heap_[parent] <= key)
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = key;
    }

    /** Place @p key at node @p i, walking the min child down. */
    void
    sift_down(std::size_t i, std::uint64_t key)
    {
        std::size_t n = heap_.size();
        for (;;) {
            std::size_t first_child = i * kArity + 1;
            if (first_child >= n)
                break;
            std::size_t end = first_child + kArity < n
                                  ? first_child + kArity
                                  : n;
            std::size_t best = first_child;
            for (std::size_t c = first_child + 1; c < end; ++c) {
                if (heap_[c] < heap_[best])
                    best = c;
            }
            if (heap_[best] >= key)
                break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = key;
    }

    void
    pop_heap()
    {
        std::uint64_t last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            sift_down(0, last);
    }

    // sdfm-state: derived(slot lists rebuilt by ckpt_load from the
    // serialized key set)
    std::vector<PageId> link_;
    // sdfm-state: derived(slot lists rebuilt by ckpt_load from the
    // serialized key set)
    std::array<PageId, kWheelSpan> heads_{};
    // sdfm-state: derived(count of the keys ckpt_load links into the
    // wheel)
    std::size_t wheel_size_ = 0;
    // sdfm-state: derived(earliest serialized key time on restore;
    // moves only the wheel/heap split, never the pop order)
    SimTime base_ = 0;
    std::vector<std::uint64_t> heap_;
    // sdfm-state: non-semantic(per-second batch scratch, refilled for
    // every batch drain_until hands over)
    std::vector<PageId> due_;
    // sdfm-state: non-semantic(per-page bitmap that orders dense
    // batches; all zero between batches)
    std::vector<std::uint64_t> marks_;
};

}  // namespace sdfm

#endif  // SDFM_WORKLOAD_EVENT_QUEUE_H
