// Event loop: ordering, cancellation, determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "sim/event_loop.h"
#include "sim/rng.h"

using namespace l4span::sim;

TEST(event_loop, fires_in_time_order)
{
    event_loop loop;
    std::vector<int> order;
    loop.schedule_at(from_ms(30), [&] { order.push_back(3); });
    loop.schedule_at(from_ms(10), [&] { order.push_back(1); });
    loop.schedule_at(from_ms(20), [&] { order.push_back(2); });
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(loop.now(), from_ms(30));
}

TEST(event_loop, equal_times_fire_in_schedule_order)
{
    event_loop loop;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) loop.schedule_at(from_ms(5), [&, i] { order.push_back(i); });
    loop.run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(event_loop, run_until_stops_at_boundary)
{
    event_loop loop;
    int fired = 0;
    loop.schedule_at(from_ms(10), [&] { ++fired; });
    loop.schedule_at(from_ms(20), [&] { ++fired; });
    loop.schedule_at(from_ms(30), [&] { ++fired; });
    loop.run_until(from_ms(20));
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(loop.now(), from_ms(20));
    loop.run_until(from_ms(40));
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(loop.now(), from_ms(40));
}

TEST(event_loop, cancel_prevents_firing)
{
    event_loop loop;
    int fired = 0;
    const auto id = loop.schedule_at(from_ms(10), [&] { ++fired; });
    loop.schedule_at(from_ms(20), [&] { ++fired; });
    loop.cancel(id);
    loop.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(loop.processed(), 1u);
}

TEST(event_loop, cancel_unknown_id_is_noop)
{
    event_loop loop;
    loop.cancel(12345);
    loop.schedule_after(from_ms(1), [] {});
    loop.run();
    SUCCEED();
}

TEST(event_loop, events_scheduled_during_run_execute)
{
    event_loop loop;
    int fired = 0;
    loop.schedule_at(from_ms(10), [&] {
        loop.schedule_after(from_ms(5), [&] { ++fired; });
    });
    loop.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(loop.now(), from_ms(15));
}

TEST(event_loop, past_times_clamp_to_now)
{
    event_loop loop;
    loop.schedule_at(from_ms(10), [&] {
        loop.schedule_at(from_ms(1), [&] { EXPECT_EQ(loop.now(), from_ms(10)); });
    });
    loop.run();
}

TEST(event_loop, schedule_after_negative_clamps_to_zero)
{
    event_loop loop;
    bool fired = false;
    loop.schedule_after(-5, [&] { fired = true; });
    loop.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(loop.now(), 0);
}

TEST(time, conversions_roundtrip)
{
    EXPECT_EQ(from_ms(1.5), 1'500'000);
    EXPECT_DOUBLE_EQ(to_ms(from_ms(123.25)), 123.25);
    EXPECT_DOUBLE_EQ(to_sec(from_sec(2.5)), 2.5);
    EXPECT_EQ(from_us(3), 3'000);
}

TEST(time, tx_time_matches_rate)
{
    // 1500 bytes at 12 Mbit/s = 1 ms.
    EXPECT_EQ(tx_time(1500, 12e6), from_ms(1));
    // Zero rate is "never" but must not divide by zero.
    EXPECT_GT(tx_time(1, 0.0), from_sec(100));
}

TEST(rng, deterministic_for_seed)
{
    rng a(7), b(7);
    for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(rng, bernoulli_extremes)
{
    rng r(1);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.bernoulli(0.0));
        EXPECT_TRUE(r.bernoulli(1.0));
    }
}

TEST(rng, normal_moments)
{
    rng r(3);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = r.normal(5.0, 2.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double stddev = std::sqrt(sq / n - mean * mean);
    EXPECT_NEAR(mean, 5.0, 0.1);
    EXPECT_NEAR(stddev, 2.0, 0.1);
}

TEST(rng, fork_decorrelates_streams)
{
    rng parent(9);
    rng child = parent.fork();
    // Streams should differ (probability of coincidence is negligible).
    bool any_diff = false;
    rng parent2(9);
    for (int i = 0; i < 10; ++i)
        if (parent2.uniform() != child.uniform()) any_diff = true;
    EXPECT_TRUE(any_diff);
}

// --- differential ordering test ----------------------------------------------
//
// The event loop against a reference model: a plain ordered map keyed on
// (when, schedule seq). Both run the same seeded program of schedules,
// cancels and run calls, and their handlers draw from identically seeded
// streams, so any divergence in firing order also diverges everything
// after it. The delay mix spans zero, sub-millisecond, multi-bucket,
// around-the-horizon (~0.54 s) and up to the 60 s maximum RTO, and a few
// absolute "anchor" times are scheduled both long before they are reached
// and shortly before, so equal-time events arrive by every queue path.

namespace {

class ref_loop {
public:
    using event_id = std::uint64_t;

    tick now() const { return now_; }

    event_id schedule_at(tick when, std::function<void()> fn)
    {
        const key k{when < now_ ? now_ : when, ++seq_};
        q_.emplace(k, std::move(fn));
        when_of_.emplace(k.second, k.first);
        return k.second;
    }

    event_id schedule_after(tick delay, std::function<void()> fn)
    {
        return schedule_at(now_ + (delay > 0 ? delay : 0), std::move(fn));
    }

    void cancel(event_id id)
    {
        const auto it = when_of_.find(id);
        if (it == when_of_.end()) return;
        q_.erase(key{it->second, id});
        when_of_.erase(it);
    }

    bool run_one()
    {
        if (q_.empty()) return false;
        auto it = q_.begin();
        now_ = it->first.first;
        std::function<void()> fn = std::move(it->second);
        when_of_.erase(it->first.second);
        q_.erase(it);
        ++processed_;
        fn();
        return true;
    }

    void run_until(tick until)
    {
        while (!q_.empty() && q_.begin()->first.first <= until) run_one();
        if (now_ < until) now_ = until;
    }

    void run()
    {
        while (run_one()) {
        }
    }

    std::size_t pending() const { return q_.size(); }
    std::uint64_t processed() const { return processed_; }
    // Time of the earliest pending event (the model's view; the event loop
    // under test is not asked).
    tick next_when() const { return q_.empty() ? -1 : q_.begin()->first.first; }

private:
    using key = std::pair<tick, std::uint64_t>;
    std::map<key, std::function<void()>> q_;
    std::map<event_id, tick> when_of_;  // pending events only
    std::uint64_t seq_ = 0;
    tick now_ = 0;
    std::uint64_t processed_ = 0;
};

constexpr tick k_max_rto = from_sec(60);

// Delays across every regime the queue distinguishes.
tick draw_delay(rng& r)
{
    switch (r.uniform_int(0, 5)) {
    case 0: return 0;
    case 1: return r.uniform_int(1, 1 << 19);  // within one bucket
    case 2: return r.uniform_int(1 << 19, from_ms(200));  // across buckets
    case 3: return from_ms(r.uniform_int(200, 1000));  // RTO re-arms, on a 1 ms grid
    case 4: return (tick{1} << 29) + r.uniform_int(-(1 << 21), 1 << 21);  // around the horizon
    default: return r.uniform_int(from_sec(1), k_max_rto);
    }
}

// Absolute times that get scheduled repeatedly from far away and close by.
tick draw_anchor(rng& r, tick now)
{
    constexpr tick step = from_ms(137);
    return (now / step + 1 + r.uniform_int(0, 7)) * step;
}

// One engine's side of the program: its loop, the ids it handed out (by
// label, so both sides cancel "the same" event), and everything observed.
template <typename Loop>
struct world {
    Loop loop;
    rng hr;  // handler decisions
    std::vector<std::uint64_t> ids;
    std::vector<tick> log;  // fired (label, now) pairs and per-op snapshots
    std::size_t spawn_cap;

    world(std::uint64_t seed, std::size_t cap) : hr(seed), spawn_cap(cap) {}

    void schedule_at(tick when)
    {
        const std::size_t label = ids.size();
        ids.push_back(0);
        ids[label] = loop.schedule_at(when, [this, label] { fire(label); });
    }
    void schedule_after(tick delay)
    {
        const std::size_t label = ids.size();
        ids.push_back(0);
        ids[label] = loop.schedule_after(delay, [this, label] { fire(label); });
    }
    void cancel_label(std::size_t label) { loop.cancel(ids[label]); }

    void fire(std::size_t label)
    {
        log.push_back(static_cast<tick>(label));
        log.push_back(loop.now());
        const double u = hr.uniform();
        const bool may_spawn = ids.size() < spawn_cap;
        if (u < 0.3 && may_spawn) {
            schedule_after(draw_delay(hr));
        } else if (u < 0.4 && may_spawn) {
            const tick when = loop.now() + draw_delay(hr);  // an equal-time pair
            schedule_at(when);
            schedule_at(when);
        } else if (u < 0.45 && may_spawn) {
            schedule_at(draw_anchor(hr, loop.now()));
        } else if (u < 0.55) {
            cancel_label(static_cast<std::size_t>(
                hr.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1)));
        }
    }

    void snapshot()
    {
        log.push_back(loop.now());
        log.push_back(static_cast<tick>(loop.pending()));
        log.push_back(static_cast<tick>(loop.processed()));
    }
};

// Runs one seeded program on both engines in lockstep and returns the two
// observation logs.
std::pair<std::vector<tick>, std::vector<tick>> run_differential(std::uint64_t seed,
                                                                 int steps)
{
    constexpr std::size_t cap = 6000;
    world<event_loop> real(seed, cap);
    world<ref_loop> model(seed, cap);
    rng ops(seed * 7919 + 1);
    for (int i = 0; i < steps; ++i) {
        const tick now = model.loop.now();
        switch (ops.uniform_int(0, 11)) {
        case 0:
        case 1:
        case 2: {
            const tick d = draw_delay(ops);
            real.schedule_after(d);
            model.schedule_after(d);
            break;
        }
        case 3: {
            const tick when = now + draw_delay(ops);
            real.schedule_at(when);
            model.schedule_at(when);
            break;
        }
        case 4: {
            const tick when = draw_anchor(ops, now);
            real.schedule_at(when);
            model.schedule_at(when);
            break;
        }
        case 5: {  // pending, fired, cancelled or never-issued ids
            if (model.ids.empty() || ops.bernoulli(0.1)) {
                const std::uint64_t bogus = ops.bernoulli(0.5) ? 0 : ~std::uint64_t{0};
                real.loop.cancel(bogus);
                model.loop.cancel(bogus);
            } else {
                const auto label = static_cast<std::size_t>(
                    ops.uniform_int(0, static_cast<std::int64_t>(model.ids.size()) - 1));
                real.cancel_label(label);
                model.cancel_label(label);
            }
            break;
        }
        case 6:
        case 7:
            real.loop.run_one();
            model.loop.run_one();
            break;
        case 8: {
            const tick until = now + draw_delay(ops) / (ops.bernoulli(0.5) ? 1 : 64);
            real.loop.run_until(until);
            model.loop.run_until(until);
            break;
        }
        case 9: {  // run_until, then schedule into the gap before the next event
            const tick until = now + ops.uniform_int(0, from_ms(3));
            real.loop.run_until(until);
            model.loop.run_until(until);
            const tick next = model.loop.next_when();
            const tick t = model.loop.now();
            const tick when = next > t ? ops.uniform_int(t, next - 1) : t;
            real.schedule_at(when);
            model.schedule_at(when);
            break;
        }
        case 10:
            if (ops.bernoulli(0.05)) {
                real.loop.run();
                model.loop.run();
            }
            break;
        default: {  // a burst at one time, half of it via schedule_after
            const tick when = now + draw_delay(ops);
            for (int k = 0; k < 4; ++k) {
                if (k % 2) {
                    real.schedule_after(when - now);
                    model.schedule_after(when - now);
                } else {
                    real.schedule_at(when);
                    model.schedule_at(when);
                }
            }
            break;
        }
        }
        real.snapshot();
        model.snapshot();
    }
    real.loop.run();
    model.loop.run();
    real.snapshot();
    model.snapshot();
    return {std::move(real.log), std::move(model.log)};
}

}  // namespace

TEST(event_loop, matches_reference_model_on_random_programs)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const auto [got, want] = run_differential(seed, 4000);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
        ASSERT_TRUE(diff.first == got.end())
            << "seed " << seed << ": first divergence at log index "
            << (diff.first - got.begin()) << " (got " << *diff.first << ", want "
            << *diff.second << ")";
        EXPECT_GT(want.size(), 10000u) << "seed " << seed;
    }
}

TEST(event_loop, equal_time_events_keep_order_across_the_horizon)
{
    // Two events are scheduled seconds ahead of time t, two more at t once
    // it is close; a ticker keeps the queue moving in between. Schedule
    // order must still decide.
    event_loop loop;
    std::vector<int> order;
    const tick t = from_sec(5);
    std::function<void()> ticker = [&] {
        if (loop.now() + from_ms(50) < t) loop.schedule_after(from_ms(50), ticker);
    };
    loop.schedule_at(0, ticker);
    loop.schedule_at(t, [&] { order.push_back(0); });
    loop.schedule_at(from_sec(3), [&] { loop.schedule_at(t, [&] { order.push_back(1); }); });
    loop.run_until(t - from_ms(1));
    loop.schedule_at(t, [&] { order.push_back(2); });
    loop.schedule_after(from_ms(1), [&] { order.push_back(3); });
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(loop.now(), t);
    EXPECT_EQ(loop.pending(), 0u);
}

TEST(event_loop, schedule_into_gap_after_run_until)
{
    // run_until leaves now() short of the next pending event; events pushed
    // into that gap fire first, in time order.
    event_loop loop;
    std::vector<int> order;
    loop.schedule_at(from_ms(10), [&] { order.push_back(9); });
    loop.schedule_at(from_ms(10) + 1, [&] { order.push_back(10); });
    loop.run_until(from_ms(10) - 100);
    EXPECT_EQ(loop.now(), from_ms(10) - 100);
    loop.schedule_at(from_ms(10) - 50, [&] { order.push_back(2); });
    loop.schedule_at(from_ms(10) - 100, [&] { order.push_back(1); });
    loop.schedule_at(from_ms(10), [&] { order.push_back(11); });
    EXPECT_EQ(loop.pending(), 5u);
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 9, 11, 10}));
    EXPECT_EQ(loop.processed(), 5u);
    EXPECT_EQ(loop.pending(), 0u);
}
