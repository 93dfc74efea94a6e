#include "sim/event_loop.h"

#include <algorithm>
#include <bit>

namespace l4span::sim {

namespace {

// Min-heap order on (when, seq) for std::push_heap / std::pop_heap.
struct later {
    template <typename T>
    bool operator()(const T& a, const T& b) const
    {
        return a.e.when != b.e.when ? a.e.when > b.e.when : a.seq > b.seq;
    }
};

}  // namespace

void event_loop::run_until(tick until)
{
    if (until >= now_) {  // nothing pending can be earlier than now()
        const std::uint64_t last = bucket_of(until);
        for (;;) {
            if (run_pos_ == run_.size()) {
                // Enter the next bucket only if it can hold an event <= until,
                // so the cursor never runs ahead of the window.
                const std::uint64_t b = next_bucket();
                if (b == k_none || b > last) break;
                enter(b);
                continue;
            }
            const entry e = run_[run_pos_];
            if (slab_[e.slot].gen != e.gen) {  // cancelled: drop regardless of when
                ++run_pos_;
                continue;
            }
            if (e.when > until) break;
            ++run_pos_;
            fire(e);
        }
    }
    if (now_ < until) now_ = until;
}

void event_loop::run()
{
    while (run_one()) {
    }
}

void event_loop::run_insert(const entry& e)
{
    auto pos = run_.end();
    const auto first = run_.begin() + static_cast<std::ptrdiff_t>(run_pos_);
    while (pos != first && (pos - 1)->when > e.when) --pos;
    run_.insert(pos, e);
}

void event_loop::compact_run()
{
    run_.erase(run_.begin(), run_.begin() + static_cast<std::ptrdiff_t>(run_pos_));
    run_pos_ = 0;
}

void event_loop::far_push(const entry& e)
{
    far_.push_back({e, far_seq_++});
    std::push_heap(far_.begin(), far_.end(), later{});
}

bool event_loop::advance()
{
    const std::uint64_t b = next_bucket();
    if (b == k_none) return false;
    enter(b);
    return true;
}

std::uint64_t event_loop::next_bucket() const
{
    // Circular scan of the occupancy bitmap from the slot after the cursor;
    // the cursor's own slot is always clear (its entries are in the run).
    const std::uint64_t start = (cur_ + 1) & (k_buckets - 1);
    for (std::uint64_t k = 0; k <= k_words; ++k) {
        const std::uint64_t w = (start / 64 + k) % k_words;
        std::uint64_t bits = occupied_[w];
        if (k == 0) bits &= ~std::uint64_t{0} << (start % 64);
        if (bits != 0) {
            const std::uint64_t i = w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
            return cur_ + 1 + ((i - start) & (k_buckets - 1));
        }
    }
    return far_.empty() ? k_none : bucket_of(far_.front().e.when);
}

void event_loop::enter(std::uint64_t b)
{
    run_.clear();
    run_pos_ = 0;
    cur_ = b;
    // The horizon moved: pull in every far event it now covers, in (when,
    // seq) order, before anything else can be pushed into those buckets.
    // That keeps each bucket list in schedule order for equal times.
    while (!far_.empty() && bucket_of(far_.front().e.when) - cur_ < k_buckets) {
        std::pop_heap(far_.begin(), far_.end(), later{});
        const entry e = far_.back().e;
        far_.pop_back();
        wheel_append(bucket_of(e.when), e);
    }

    // b is occupied: next_bucket() found its bit, or it holds the far
    // event that was just migrated.
    const std::uint64_t i = b & (k_buckets - 1);
    occupied_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    for (std::uint32_t n = head_[i]; n != k_npos; n = nodes_[n].next) run_.push_back(nodes_[n].e);
    nodes_[tail_[i]].next = free_node_;  // the whole list joins the free pool
    free_node_ = head_[i];

    // Stable insertion sort by time: equal times keep list (= schedule)
    // order, and nothing is allocated. Its cost is one move per inverted
    // pair, and bucket lists arrive nearly sorted (interleaved per-flow and
    // per-UE streams): 3-8 moves per entry on every perfbench workload,
    // including multicell_dense buckets of several hundred entries.
    for (std::size_t k = 1; k < run_.size(); ++k) {
        const entry e = run_[k];
        std::size_t j = k;
        for (; j > 0 && run_[j - 1].when > e.when; --j) run_[j] = run_[j - 1];
        run_[j] = e;
    }
}

}  // namespace l4span::sim
