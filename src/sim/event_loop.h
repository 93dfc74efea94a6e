// Deterministic discrete-event loop.
//
// Events scheduled at equal times fire in scheduling order, so runs are
// reproducible bit-for-bit for a given seed set.
//
// The hot path is allocation-free in steady state: pending events live in a
// slab of pooled records recycled through a free list, the ready queue is a
// single-level timing wheel over pooled list nodes, and handlers are stored
// in a small-buffer-optimized `callback` whose inline buffer is sized so the
// simulator's largest common capture (a `this` pointer plus a `net::packet`
// by value) never touches the heap. Steady-state memory is bounded by the
// *peak pending* event count, not by the total number of events ever
// scheduled.
//
// The wheel has 1024 buckets of 2^19 ns (~524 us), ~0.54 s of horizon,
// sized from measured push traffic (docs/ARCHITECTURE.md has the numbers):
// pending timestamps barely cluster (1.2-5.3 events per distinct
// timestamp), 77-90% of pushes land within 10 ms, and the 200 ms minimum
// RTO / PTO re-arms — 6-7% of all pushes, nearly all cancelled before they
// are due — fall inside the horizon. So a push is an O(1) list append and a
// dead timer costs one list node until its bucket comes up. The few events
// beyond the horizon wait in a small (when, seq) heap and move into the
// wheel as soon as their bucket enters it. When the cursor reaches a
// bucket, its entries are sorted by time into the "active run" the loop
// fires from.
//
// Thread-safety contract: an event_loop is single-threaded by design — one
// loop per thread, no internal locking. Parallel experiments give every
// scenario its own loop (see scenario::grid_runner).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace l4span::sim {

// Move-only callable with a small-buffer optimization. Captures up to
// `k_inline_bytes` are stored inline; larger ones fall back to a single
// heap allocation. Replaces std::function on the event hot path, where the
// type-erased copyable machinery and its allocation policy cost more than
// the handler bodies themselves.
class callback {
public:
    // Inline capacity: `this` + a by-value net::packet (~120 bytes) with room
    // to spare, so every handler the simulator schedules today stays inline.
    static constexpr std::size_t k_inline_bytes = 152;

    callback() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, callback> &&
                  std::is_invocable_r_v<void, std::decay_t<F>&>>>
    callback(F&& f)  // NOLINT(google-explicit-constructor): handler sink
    {
        using fn_t = std::decay_t<F>;
        if constexpr (sizeof(fn_t) <= k_inline_bytes &&
                      alignof(fn_t) <= alignof(std::max_align_t)) {
            ::new (static_cast<void*>(buf_)) fn_t(std::forward<F>(f));
            vt_ = &inline_vtable<fn_t>;
        } else {
            *reinterpret_cast<fn_t**>(buf_) = new fn_t(std::forward<F>(f));
            vt_ = &heap_vtable<fn_t>;
        }
    }

    callback(callback&& other) noexcept { move_from(other); }
    callback& operator=(callback&& other) noexcept
    {
        if (this != &other) {
            reset();
            move_from(other);
        }
        return *this;
    }
    callback(const callback&) = delete;
    callback& operator=(const callback&) = delete;
    ~callback() { reset(); }

    void operator()() { vt_->invoke(buf_); }
    explicit operator bool() const { return vt_ != nullptr; }

    void reset()
    {
        if (vt_) {
            vt_->destroy(buf_);
            vt_ = nullptr;
        }
    }

    // Constructs the handler in place (no temporary callback, no relocate) —
    // the schedule hot path builds handlers directly in their slab slot.
    template <typename F>
    void emplace(F&& f)
    {
        reset();
        using fn_t = std::decay_t<F>;
        if constexpr (sizeof(fn_t) <= k_inline_bytes &&
                      alignof(fn_t) <= alignof(std::max_align_t)) {
            ::new (static_cast<void*>(buf_)) fn_t(std::forward<F>(f));
            vt_ = &inline_vtable<fn_t>;
        } else {
            *reinterpret_cast<fn_t**>(buf_) = new fn_t(std::forward<F>(f));
            vt_ = &heap_vtable<fn_t>;
        }
    }

private:
    struct vtable {
        void (*invoke)(void*);
        // Move-constructs into dst and destroys src (pointer steal for the
        // heap case), so relocation is one indirect call.
        void (*relocate)(void* src, void* dst) noexcept;
        void (*destroy)(void*) noexcept;
    };

    template <typename F>
    static constexpr vtable inline_vtable = {
        [](void* p) { (*static_cast<F*>(p))(); },
        [](void* src, void* dst) noexcept {
            ::new (dst) F(std::move(*static_cast<F*>(src)));
            static_cast<F*>(src)->~F();
        },
        [](void* p) noexcept { static_cast<F*>(p)->~F(); },
    };

    template <typename F>
    static constexpr vtable heap_vtable = {
        [](void* p) { (**static_cast<F**>(p))(); },
        [](void* src, void* dst) noexcept {
            *static_cast<F**>(dst) = *static_cast<F**>(src);
        },
        [](void* p) noexcept { delete *static_cast<F**>(p); },
    };

    void move_from(callback& other) noexcept
    {
        vt_ = other.vt_;
        if (vt_) {
            vt_->relocate(other.buf_, buf_);
            other.vt_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[k_inline_bytes];
    const vtable* vt_ = nullptr;
};

class event_loop {
public:
    using handler = callback;
    using event_id = std::uint64_t;

    event_loop() = default;
    event_loop(const event_loop&) = delete;
    event_loop& operator=(const event_loop&) = delete;

    tick now() const { return now_; }

    // Schedules `fn` at absolute time `when` (clamped to now()). The
    // handler is constructed directly in its pooled slab record — the
    // callable is touched exactly once on the way in.
    template <typename F>
    event_id schedule_at(tick when, F&& fn)
    {
        const std::uint32_t s = alloc_slot();
        slot& e = slab_[s];
        e.fn.emplace(std::forward<F>(fn));
        queue_push(when < now_ ? now_ : when, s, e.gen);
        ++live_;
        return make_id(s, e.gen);
    }
    event_id schedule_at(tick when, handler fn)
    {
        const std::uint32_t s = alloc_slot();
        slot& e = slab_[s];
        e.fn = std::move(fn);
        queue_push(when < now_ ? now_ : when, s, e.gen);
        ++live_;
        return make_id(s, e.gen);
    }

    // Schedules `fn` after a relative delay (clamped to zero).
    template <typename F>
    event_id schedule_after(tick delay, F&& fn)
    {
        return schedule_at(now_ + (delay > 0 ? delay : 0), std::forward<F>(fn));
    }

    // Cancels a pending event. Cancelling an already-fired, cancelled, or
    // unknown id is a safe no-op: ids carry the slot's generation counter,
    // which is bumped whenever the slot is reclaimed, so a stale id cannot
    // hit a recycled slot — unless a caller retains an id across ~2^32
    // reuses of one slot (32-bit generation wrap). Callers clear stored ids
    // on fire/cancel (see tcp_sender's RTO), keeping stale ids short-lived.
    void cancel(event_id id)
    {
        const auto s = static_cast<std::uint32_t>(id & 0xffffffffu);
        const auto gen = static_cast<std::uint32_t>(id >> 32);
        if (gen == 0 || s >= slab_.size() || slab_[s].gen != gen) return;
        release_slot(s);  // the stale queue entry is skipped on pop (gen mismatch)
        --live_;
    }

    // Runs a single event; returns false when the queue is empty.
    bool run_one()
    {
        for (;;) {
            if (run_pos_ == run_.size() && !advance()) return false;
            const entry e = run_[run_pos_++];
            if (slab_[e.slot].gen != e.gen) continue;  // cancelled
            fire(e);
            return true;
        }
    }

    // Runs all events with time <= `until`; afterwards now() == until.
    void run_until(tick until);

    // Drains the queue completely.
    void run();

    std::size_t pending() const { return live_; }
    std::uint64_t processed() const { return processed_; }

    // --- slab statistics (memory-boundedness regression tests) ---
    // Pooled records ever created: bounded by peak concurrent pending events.
    std::size_t slab_slots() const { return slab_.size(); }
    // Records currently on the free list, awaiting reuse.
    std::size_t free_slots() const { return slab_.size() - live_; }

private:
    static constexpr std::uint32_t k_npos = 0xffffffffu;
    static constexpr std::uint64_t k_none = ~std::uint64_t{0};

    // Wheel geometry (see the file comment for why these values).
    static constexpr int k_bucket_shift = 19;  // 2^19 ns ≈ 524 us per bucket
    static constexpr std::uint64_t k_buckets = 1024;  // ≈ 0.54 s of horizon
    static constexpr std::uint64_t k_words = k_buckets / 64;

    // One pooled record per pending event; the queue entry carries `when`.
    struct slot {
        callback fn;
        std::uint32_t gen = 1;  // parity with the id; never 0, so id 0 is invalid
        std::uint32_t next_free = k_npos;
    };
    // A queued event. A cancelled one stays queued and is skipped when its
    // generation no longer matches the slot's.
    struct entry {
        tick when;
        std::uint32_t slot;
        std::uint32_t gen;
    };
    // Wheel-list node: a bucket is a FIFO singly linked list through the
    // node pool, so list order is arrival order.
    struct node {
        entry e;
        std::uint32_t next;
    };
    // Beyond the horizon: ordered by (when, seq), seq counting far pushes.
    struct far_entry {
        entry e;
        std::uint64_t seq;
    };

    static event_id make_id(std::uint32_t s, std::uint32_t gen)
    {
        return (static_cast<event_id>(gen) << 32) | s;
    }

    static std::uint64_t bucket_of(tick when)
    {
        return static_cast<std::uint64_t>(when) >> k_bucket_shift;
    }

    // Grabs a free pooled record (or grows the slab).
    std::uint32_t alloc_slot()
    {
        if (free_head_ != k_npos) {
            const std::uint32_t s = free_head_;
            free_head_ = slab_[s].next_free;
            return s;
        }
        const auto s = static_cast<std::uint32_t>(slab_.size());
        slab_.emplace_back();
        return s;
    }

    // Reclaims a slot: drop the handler, invalidate outstanding ids and
    // queue entries by bumping the generation, and chain onto the free list.
    void release_slot(std::uint32_t s)
    {
        slot& e = slab_[s];
        e.fn.reset();
        if (++e.gen == 0) e.gen = 1;
        e.next_free = free_head_;
        free_head_ = s;
    }

    // Runs a live entry already taken off the queue.
    void fire(const entry& e)
    {
        now_ = e.when;
        callback fn = std::move(slab_[e.slot].fn);
        // Free the slot before invoking: a handler that reschedules (the
        // per-slot MAC tick, RTO rearm, ...) reuses its own record.
        release_slot(e.slot);
        --live_;
        ++processed_;
        fn();
    }

    // Queues (when, slot, gen). Everything in the active run precedes every
    // wheel bucket, which precedes every far entry; a push goes wherever
    // its bucket number puts it.
    void queue_push(tick when, std::uint32_t s, std::uint32_t gen)
    {
        const entry e{when, s, gen};
        const std::uint64_t b = bucket_of(when);
        if (b <= cur_) {
            // The cursor's bucket, or one before it when the queue ran dry
            // through buckets of cancelled events: keep the active run
            // sorted. Appending is the common case; once the consumed
            // prefix is most of the run (a long chain of events within one
            // bucket), drop it so the run stays short.
            if (run_.size() == run_pos_ || run_.back().when <= when) {
                if (run_pos_ >= 256 && 2 * run_pos_ >= run_.size()) compact_run();
                run_.push_back(e);
            } else {
                run_insert(e);
            }
        } else if (b - cur_ < k_buckets) {
            wheel_append(b, e);
        } else {
            far_push(e);
        }
    }

    void wheel_append(std::uint64_t b, const entry& e)
    {
        std::uint32_t n = free_node_;
        if (n != k_npos) {
            free_node_ = nodes_[n].next;
            nodes_[n] = {e, k_npos};
        } else {
            n = static_cast<std::uint32_t>(nodes_.size());
            nodes_.push_back({e, k_npos});
        }
        const std::size_t i = b & (k_buckets - 1);
        std::uint64_t& word = occupied_[i / 64];
        const std::uint64_t bit = std::uint64_t{1} << (i % 64);
        if (word & bit) {
            nodes_[tail_[i]].next = n;
        } else {
            word |= bit;
            head_[i] = n;
        }
        tail_[i] = n;
    }

    // Sorted insert behind every entry with an equal or earlier time.
    void run_insert(const entry& e);
    void compact_run();
    void far_push(const entry& e);
    // Moves the cursor to the next non-empty bucket and loads it into the
    // active run; false when nothing is pending.
    bool advance();
    // Bucket number the cursor would move to next, or k_none.
    std::uint64_t next_bucket() const;
    void enter(std::uint64_t b);

    tick now_ = 0;
    std::size_t live_ = 0;
    std::uint64_t processed_ = 0;
    std::vector<slot> slab_;
    std::uint32_t free_head_ = k_npos;

    // Active run: the cursor's bucket, sorted by (when, schedule order);
    // entries before run_pos_ have been consumed.
    std::vector<entry> run_;
    std::size_t run_pos_ = 0;
    std::uint64_t cur_ = 0;  // absolute bucket number of the active run

    // Wheel: buckets cur_+1 .. cur_+k_buckets-1, slot = bucket mod k_buckets.
    // head_/tail_ are meaningful only where the occupancy bit is set.
    std::vector<node> nodes_;
    std::uint32_t free_node_ = k_npos;
    std::array<std::uint32_t, k_buckets> head_{};
    std::array<std::uint32_t, k_buckets> tail_{};
    std::array<std::uint64_t, k_words> occupied_{};

    // Far future: a binary min-heap on (when, seq).
    std::vector<far_entry> far_;
    std::uint64_t far_seq_ = 0;
};

}  // namespace l4span::sim
