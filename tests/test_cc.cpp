// Congestion-controller control laws, exercised directly (no network), and
// the ECN feedback arithmetic shared by the TCP and QUIC engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <utility>

#include "transport/bbr.h"
#include "transport/cc.h"
#include "transport/cubic.h"
#include "transport/ecn_feedback.h"
#include "transport/prague.h"
#include "transport/reno.h"

using namespace l4span;
using namespace l4span::transport;

namespace {

constexpr std::uint32_t kMss = 1400;

ack_sample ack(std::uint32_t bytes, sim::tick now, sim::tick srtt = sim::from_ms(40),
               double ce = 0.0)
{
    ack_sample s;
    s.newly_acked = bytes;
    s.rtt = srtt;
    s.srtt = srtt;
    s.ce_fraction = ce;
    s.now = now;
    s.delivery_rate_bps = 10e6;
    return s;
}

}  // namespace

TEST(factory, builds_all_algorithms)
{
    for (const char* name : {"reno", "cubic", "prague", "bbr", "bbr2"}) {
        auto cc = make_cc(name, kMss);
        ASSERT_NE(cc, nullptr);
        EXPECT_EQ(cc->name(), name);
        EXPECT_GT(cc->cwnd(), 0u);
    }
    EXPECT_THROW(make_cc("vegas", kMss), std::invalid_argument);
}

TEST(factory, unknown_name_error_lists_valid_algorithms)
{
    try {
        make_cc("vegas", kMss);
        FAIL() << "make_cc must reject unknown algorithm names";
    } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("vegas"), std::string::npos) << msg;
        for (const char* name : {"reno", "cubic", "prague", "bbr", "bbr2"})
            EXPECT_NE(msg.find(name), std::string::npos)
                << "error must list valid name \"" << name << "\": " << msg;
    }
}

// --- shared ECN feedback arithmetic (transport/ecn_feedback.h) ---------------

TEST(ecn_feedback, first_report_establishes_baseline_without_spurious_delta)
{
    // The AccECN ACE field starts at 5 per the draft; a fresh tracker must
    // not turn that initial value into a phantom CE burst.
    ecn_counter_tracker t(3);
    EXPECT_EQ(t.update(5), 0u);
    EXPECT_EQ(t.update(6), 1u);
    EXPECT_EQ(t.update(6), 0u);
}

TEST(ecn_feedback, ace_3bit_counter_wraps)
{
    ecn_counter_tracker t(3);
    t.update(6);
    EXPECT_EQ(t.update(1), 3u);  // 6 -> 7,0,1 across the 3-bit wrap
    EXPECT_EQ(t.update(0), 7u);  // full-cycle-minus-one wrap
}

TEST(ecn_feedback, accecn_24bit_byte_counter_wraps)
{
    ecn_counter_tracker t(24);
    t.update(0xfffffa);
    EXPECT_EQ(t.update(0x000010), 0x16u);  // 6 bytes to the wrap + 0x10 past it
    // Values above 24 bits are masked like the wire field would be.
    t.update(0);
    EXPECT_EQ(t.update(0x1000005), 5u);
}

TEST(ecn_feedback, quic_64bit_counters_do_not_wrap_in_practice)
{
    ecn_counter_tracker t(64);
    t.update(1ull << 40);
    EXPECT_EQ(t.update((1ull << 40) + 123), 123u);
}

TEST(ecn_feedback, ce_fraction_clamps_and_handles_zero_acked)
{
    EXPECT_DOUBLE_EQ(ce_fraction(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(ce_fraction(7, 0), 1.0);   // CE progress, no ack progress
    EXPECT_DOUBLE_EQ(ce_fraction(500, 1000), 0.5);
    EXPECT_DOUBLE_EQ(ce_fraction(2000, 1000), 1.0);  // skew can't exceed 100%
}

TEST(factory, ecn_codepoints_match_l4s_identifiers)
{
    EXPECT_EQ(make_cc("prague", kMss)->data_ecn(), net::ecn::ect1);
    EXPECT_EQ(make_cc("bbr2", kMss)->data_ecn(), net::ecn::ect1);
    EXPECT_EQ(make_cc("cubic", kMss)->data_ecn(), net::ecn::ect0);
    EXPECT_EQ(make_cc("reno", kMss)->data_ecn(), net::ecn::ect0);
    EXPECT_TRUE(make_cc("prague", kMss)->uses_accecn());
    EXPECT_TRUE(make_cc("bbr2", kMss)->uses_accecn());
    EXPECT_FALSE(make_cc("cubic", kMss)->uses_accecn());
}

TEST(reno_law, aimd)
{
    reno cc(kMss);
    const auto w0 = cc.cwnd();
    // Exit slow start.
    cc.on_loss(0);
    const auto w1 = cc.cwnd();
    EXPECT_EQ(w1, w0 / 2);
    // One RTT of ACKs adds ~1 MSS.
    std::uint64_t acked = 0;
    sim::tick t = 0;
    while (acked < w1) {
        cc.on_ack(ack(kMss, t));
        acked += kMss;
        t += sim::from_ms(1);
    }
    EXPECT_NEAR(static_cast<double>(cc.cwnd()), static_cast<double>(w1 + kMss),
                static_cast<double>(kMss));
}

TEST(reno_law, rto_collapses_to_one_mss)
{
    reno cc(kMss);
    cc.on_rto(0);
    EXPECT_EQ(cc.cwnd(), kMss);
}

TEST(cubic_law, beta_is_point_seven)
{
    cubic cc(kMss);
    cc.on_ack(ack(100 * kMss, 0));  // slow start inflate
    const auto before = cc.cwnd();
    cc.on_loss(sim::from_ms(1));
    EXPECT_NEAR(static_cast<double>(cc.cwnd()), 0.7 * static_cast<double>(before),
                static_cast<double>(kMss));
}

TEST(cubic_law, concave_recovery_toward_wmax)
{
    cubic cc(kMss);
    cc.on_ack(ack(200 * kMss, 0));
    const auto w_max = cc.cwnd();
    cc.on_loss(sim::from_ms(1));
    // Feed ACKs for a few seconds; growth should approach W_max and flatten.
    sim::tick t = sim::from_ms(1);
    std::uint64_t prev = cc.cwnd();
    std::uint64_t max_delta_late = 0, max_delta_early = 0;
    for (int i = 0; i < 4000; ++i) {
        t += sim::from_ms(1);
        cc.on_ack(ack(kMss, t));
        const std::uint64_t d = cc.cwnd() - prev;
        if (i < 400) max_delta_early = std::max(max_delta_early, d);
        if (i > 3000) max_delta_late = std::max(max_delta_late, d);
        prev = cc.cwnd();
    }
    EXPECT_LE(cc.cwnd(), w_max + 40ull * kMss);
    EXPECT_GE(max_delta_early, max_delta_late) << "growth flattens near W_max (concave)";
}

TEST(prague_law, alpha_tracks_ce_fraction)
{
    prague cc(kMss);
    sim::tick t = 0;
    // Rounds with a steady 30% CE fraction.
    for (int i = 0; i < 200; ++i) {
        t += sim::from_ms(5);
        cc.on_ack(ack(kMss, t, sim::from_ms(40), 0.3));
    }
    EXPECT_NEAR(cc.alpha(), 0.3, 0.1);
}

TEST(prague_law, md_is_alpha_over_two_once_per_rtt)
{
    prague cc(kMss);
    sim::tick t = 0;
    // Converge alpha near 1 with fully marked rounds.
    for (int i = 0; i < 400; ++i) {
        t += sim::from_ms(5);
        cc.on_ack(ack(kMss, t, sim::from_ms(40), 1.0));
    }
    const double alpha = cc.alpha();
    EXPECT_GT(alpha, 0.8);
    const auto before = cc.cwnd();
    t += sim::from_ms(41);  // force a new round with CE
    cc.on_ack(ack(kMss, t, sim::from_ms(40), 1.0));
    EXPECT_LT(cc.cwnd(), before);
    EXPECT_GT(cc.cwnd(), static_cast<std::uint64_t>(before * (1.0 - alpha / 2.0) * 0.8));
}

TEST(prague_law, clean_rounds_return_to_additive_increase)
{
    prague cc(kMss);
    sim::tick t = 0;
    for (int i = 0; i < 100; ++i) {
        t += sim::from_ms(5);
        cc.on_ack(ack(kMss, t, sim::from_ms(40), 1.0));
    }
    const auto low = cc.cwnd();
    for (int i = 0; i < 2000; ++i) {
        t += sim::from_ms(5);
        cc.on_ack(ack(kMss, t, sim::from_ms(40), 0.0));
    }
    EXPECT_GT(cc.cwnd(), low) << "AI resumes immediately after MD (the L4S sawtooth)";
}

TEST(bbr_law, startup_finds_bandwidth_then_settles)
{
    bbr cc(kMss, false);
    sim::tick t = 0;
    for (int i = 0; i < 2000; ++i) {
        t += sim::from_ms(2);
        ack_sample s = ack(kMss, t, sim::from_ms(40));
        s.delivery_rate_bps = 20e6;
        s.in_flight = cc.cwnd() / 2;
        cc.on_ack(s);
    }
    EXPECT_NEAR(cc.bandwidth_bps(), 20e6, 2e6);
    // cwnd ~ cwnd_gain * BDP = 2 * 20e6/8 * 0.04 = 200 kB.
    EXPECT_GT(cc.cwnd(), 100'000u);
    EXPECT_LT(cc.cwnd(), 500'000u);
}

TEST(bbr_law, v1_ignores_loss_and_ecn)
{
    bbr cc(kMss, false);
    sim::tick t = 0;
    for (int i = 0; i < 500; ++i) {
        t += sim::from_ms(2);
        ack_sample s = ack(kMss, t);
        s.in_flight = cc.cwnd() / 2;
        cc.on_ack(s);
    }
    const auto before = cc.cwnd();
    cc.on_loss(t);
    cc.on_ecn(t);
    EXPECT_EQ(cc.cwnd(), before);
}

TEST(bbr_law, v2_reduces_bound_on_ce)
{
    bbr cc(kMss, true);
    sim::tick t = 0;
    for (int i = 0; i < 1000; ++i) {
        t += sim::from_ms(2);
        ack_sample s = ack(kMss, t);
        s.in_flight = cc.cwnd() / 2;
        cc.on_ack(s);
    }
    const auto before = cc.cwnd();
    // Two rounds of heavy CE.
    for (int i = 0; i < 80; ++i) {
        t += sim::from_ms(2);
        ack_sample s = ack(kMss, t, sim::from_ms(40), 0.8);
        s.in_flight = cc.cwnd() / 2;
        cc.on_ack(s);
    }
    EXPECT_LT(cc.cwnd(), before) << "BBRv2 responds to AccECN CE (DCTCP-like)";
}

TEST(bbr_law, v2_loss_shrinks_inflight_hi)
{
    bbr cc(kMss, true);
    sim::tick t = 0;
    for (int i = 0; i < 500; ++i) {
        t += sim::from_ms(2);
        ack_sample s = ack(kMss, t);
        s.in_flight = cc.cwnd() / 2;
        cc.on_ack(s);
    }
    const auto before = cc.cwnd();
    cc.on_loss(t);
    EXPECT_LE(cc.cwnd(), before);
}

TEST(bbr_law, windowed_max_filter_matches_naive_window_max)
{
    // The naive filter the monotone deque replaced: keep every sample, drop
    // expired ones (round + window < current) at push time, max by scan.
    constexpr std::uint64_t k_window = 10;
    std::mt19937_64 gen(2024);
    for (int trial = 0; trial < 20; ++trial) {
        windowed_max_filter fast(k_window);
        std::deque<std::pair<std::uint64_t, double>> naive;
        std::uint64_t round = 0;
        for (int i = 0; i < 5000; ++i) {
            // Rounds advance by 0..3 per sample, sometimes by a whole window.
            const auto step = gen() % 40;
            round += step < 30 ? step % 2 : (step < 38 ? 2 + step % 2 : k_window + step % 3);
            // Few distinct values, so ties (equal maxima) are common.
            const double v = gen() % 3 == 0 ? static_cast<double>(1 + gen() % 8) * 1e6
                                            : std::uniform_real_distribution<double>(
                                                  1e5, 1e8)(gen);
            fast.push(round, v);
            naive.emplace_back(round, v);
            while (!naive.empty() && naive.front().first + k_window < round)
                naive.pop_front();
            double best = 0.0;
            for (const auto& [r, bps] : naive) best = std::max(best, bps);
            ASSERT_EQ(fast.max(), best) << "trial " << trial << " sample " << i;
        }
    }
    EXPECT_EQ(windowed_max_filter(k_window).max(), 0.0);
}
