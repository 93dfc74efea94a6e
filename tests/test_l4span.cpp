// L4Span entity: event handling, classification, marking paths, views.
#include <gtest/gtest.h>

#include "core/l4span.h"

using namespace l4span;
using namespace l4span::core;

namespace {

net::packet udp_pkt(net::ecn e, std::uint32_t payload = 1200)
{
    net::packet p;
    p.ft = {1, 2, 1000, 2000, net::ip_proto::udp};
    p.ecn_field = e;
    p.payload_bytes = payload;
    return p;
}

net::packet tcp_data(net::ecn e, std::uint32_t payload = 1400, std::uint16_t dport = 2000)
{
    net::packet p;
    p.ft = {1, 2, 1000, dport, net::ip_proto::tcp};
    p.ecn_field = e;
    p.tcp = net::tcp_header{};
    p.payload_bytes = payload;
    return p;
}

ran::dl_delivery_status status(ran::pdcp_sn_t txed, sim::tick ts,
                               ran::rnti_t ue = 1, ran::drb_id_t drb = 1)
{
    ran::dl_delivery_status st;
    st.ue = ue;
    st.drb = drb;
    st.highest_transmitted_sn = txed;
    st.has_transmitted = true;
    st.timestamp = ts;
    return st;
}

// Feeds `n` packets and transmit feedback at a steady rate to warm up the
// estimator. One SDU is always outstanding so the queue counts as
// backlogged and the busy-period estimator reads the true service rate.
void warm_up(core::l4span& l, int n, sim::tick spacing, std::uint32_t payload = 1200)
{
    auto head = udp_pkt(net::ecn::ect1, payload);
    l.on_dl_packet(head, 1, 1, 1, 0);
    for (int i = 0; i < n; ++i) {
        const sim::tick t = i * spacing;
        auto p = udp_pkt(net::ecn::ect1, payload);
        l.on_dl_packet(p, 1, 1, static_cast<ran::pdcp_sn_t>(i + 2), t);
        // Transmit the previous SDU: the new one keeps the queue non-empty.
        l.on_delivery_status(status(static_cast<ran::pdcp_sn_t>(i + 1), t + spacing / 2),
                             t + spacing / 2);
    }
}

}  // namespace

TEST(l4span_entity, counts_the_three_event_classes)
{
    core::l4span l({});
    auto p = udp_pkt(net::ecn::ect1);
    l.on_dl_packet(p, 1, 1, 1, 0);
    l.on_delivery_status(status(1, sim::from_ms(1)), sim::from_ms(1));
    net::packet ack = tcp_data(net::ecn::not_ect, 0);
    ack.tcp->flags.ack = true;
    l.on_ul_packet(ack, 1, sim::from_ms(2));
    EXPECT_EQ(l.dl_events(), 1u);
    EXPECT_EQ(l.feedback_events(), 1u);
    EXPECT_EQ(l.ul_events(), 1u);
}

TEST(l4span_entity, classifies_flows_into_drb_mix)
{
    core::l4span l({});
    auto a = udp_pkt(net::ecn::ect1);
    l.on_dl_packet(a, 1, 1, 1, 0);
    auto v = l.view(1, 1);
    EXPECT_TRUE(v.has_l4s);
    EXPECT_FALSE(v.has_classic);

    auto b = tcp_data(net::ecn::ect0);
    l.on_dl_packet(b, 1, 1, 2, 0);
    v = l.view(1, 1);
    EXPECT_TRUE(v.has_classic) << "second flow makes the DRB mixed";
}

TEST(l4span_entity, estimator_and_sojourn_update_from_feedback)
{
    core::l4span l({});
    warm_up(l, 100, sim::from_us(500));
    const auto v = l.view(1, 1);
    EXPECT_GT(v.rate_hat_Bps, 1e6);
    EXPECT_LE(v.standing_bytes, 1300u) << "only the in-service SDU stands";
    // Now 20 packets ingress without feedback: standing queue builds.
    for (int i = 0; i < 20; ++i) {
        auto p = udp_pkt(net::ecn::ect1);
        l.on_dl_packet(p, 1, 1, static_cast<ran::pdcp_sn_t>(101 + i), sim::from_ms(60));
    }
    EXPECT_GT(l.view(1, 1).standing_bytes, 20000u);
}

TEST(l4span_entity, udp_l4s_marked_on_downlink_when_queue_exceeds_threshold)
{
    l4span_config cfg;
    cfg.seed = 3;
    core::l4span l(cfg);
    warm_up(l, 200, sim::from_us(500));
    // Build a standing queue worth far more than tau_s at the current rate.
    int ce = 0, total = 0;
    for (int i = 0; i < 400; ++i) {
        auto p = udp_pkt(net::ecn::ect1);
        l.on_dl_packet(p, 1, 1, static_cast<ran::pdcp_sn_t>(301 + i), sim::from_ms(100));
        ++total;
        if (p.ecn_field == net::ecn::ce) ++ce;
        // Feedback without transmissions keeps the marking state fresh.
        if (i % 10 == 9) {
            l.on_delivery_status(status(201, sim::from_ms(100) + i), sim::from_ms(100) + i);
        }
    }
    EXPECT_GT(ce, total / 2) << "deep queue must mark aggressively (Eq. 1)";
}

TEST(l4span_entity, no_marking_with_empty_queue)
{
    l4span_config cfg;
    cfg.seed = 3;
    core::l4span l(cfg);
    warm_up(l, 200, sim::from_us(500));
    // Queue kept at zero (feedback confirms everything transmitted).
    int ce = 0;
    for (int i = 0; i < 200; ++i) {
        auto p = udp_pkt(net::ecn::ect1);
        const auto sn = static_cast<ran::pdcp_sn_t>(301 + i);
        const sim::tick t = sim::from_ms(100) + i * sim::from_us(500);
        l.on_dl_packet(p, 1, 1, sn, t);
        if (p.ecn_field == net::ecn::ce) ++ce;
        l.on_delivery_status(status(sn, t + sim::from_us(100)), t + sim::from_us(100));
    }
    EXPECT_LE(ce, 2) << "an empty queue must (almost) never mark";
}

TEST(l4span_entity, non_ecn_flows_untouched_unless_drop_mode)
{
    l4span_config cfg;
    cfg.seed = 3;
    core::l4span l(cfg);
    warm_up(l, 200, sim::from_us(500));
    for (int i = 0; i < 100; ++i) {
        auto p = udp_pkt(net::ecn::not_ect);
        EXPECT_TRUE(l.on_dl_packet(p, 1, 1, static_cast<ran::pdcp_sn_t>(301 + i),
                                   sim::from_ms(100)));
        EXPECT_EQ(p.ecn_field, net::ecn::not_ect);
    }
}

TEST(l4span_entity, drop_mode_sheds_non_ecn_under_congestion)
{
    l4span_config cfg;
    cfg.seed = 3;
    cfg.drop_non_ecn = true;
    core::l4span l(cfg);
    // Mark this DRB classic and congested: non-ECN UDP flow.
    warm_up(l, 200, sim::from_us(500));
    int dropped = 0;
    for (int i = 0; i < 1000; ++i) {
        auto p = udp_pkt(net::ecn::not_ect);
        p.ft.dst_port = 7777;  // distinct flow
        const auto sn = static_cast<ran::pdcp_sn_t>(301 + i);
        if (!l.on_dl_packet(p, 1, 1, sn, sim::from_ms(100))) ++dropped;
        if (i % 10 == 9)
            l.on_delivery_status(status(201, sim::from_ms(100) + i), sim::from_ms(100) + i);
    }
    EXPECT_GT(dropped, 0) << "drop-based feedback for non-ECN flows (§4.4)";
    EXPECT_EQ(l.drops(), static_cast<std::uint64_t>(dropped));
}

TEST(l4span_entity, drop_mode_sheds_stripped_tcp_on_the_short_circuit_path)
{
    // A TCP flow the path stripped to Not-ECT gets no ACK rewrite, so with
    // short-circuiting on (the default) the drop fallback is its only
    // congestion signal. The short-circuit branch must honor drop_non_ecn
    // instead of returning true unconditionally.
    l4span_config cfg;
    cfg.seed = 3;
    cfg.drop_non_ecn = true;
    ASSERT_TRUE(cfg.short_circuit);
    core::l4span l(cfg);
    warm_up(l, 200, sim::from_us(500));
    int dropped = 0;
    for (int i = 0; i < 1000; ++i) {
        auto p = tcp_data(net::ecn::not_ect, 1400, /*dport=*/7777);
        const auto sn = static_cast<ran::pdcp_sn_t>(301 + i);
        if (!l.on_dl_packet(p, 1, 1, sn, sim::from_ms(100))) ++dropped;
        if (i % 10 == 9)
            l.on_delivery_status(status(201, sim::from_ms(100) + i), sim::from_ms(100) + i);
    }
    EXPECT_GT(dropped, 0) << "stripped TCP must get drop feedback under "
                             "congestion, or it sits in a deep RLC queue";
    EXPECT_EQ(l.drops(), static_cast<std::uint64_t>(dropped));

    // With the knob off (the default), the same stream passes untouched.
    l4span_config off;
    off.seed = 3;
    core::l4span l2(off);
    warm_up(l2, 200, sim::from_us(500));
    for (int i = 0; i < 1000; ++i) {
        auto p = tcp_data(net::ecn::not_ect, 1400, /*dport=*/7777);
        EXPECT_TRUE(l2.on_dl_packet(p, 1, 1, static_cast<ran::pdcp_sn_t>(301 + i),
                                    sim::from_ms(100)));
    }
    EXPECT_EQ(l2.drops(), 0u);
}

TEST(l4span_entity, drop_mode_standing_queue_stays_bounded)
{
    // Like the gNB, hand out a PDCP SN only to admitted packets: a dropped
    // packet leaves its SN to the next one. The standing queue must stay
    // exactly the packets above the transmit watermark, not keep one stale
    // entry per drop.
    l4span_config cfg;
    cfg.seed = 3;
    cfg.drop_non_ecn = true;
    core::l4span l(cfg);
    warm_up(l, 200, sim::from_us(500));  // SNs 1..201, 1..200 transmitted
    const std::uint64_t bytes = udp_pkt(net::ecn::not_ect).size_bytes();
    std::vector<ran::pdcp_sn_t> ingress_sns{201};
    ran::pdcp_sn_t next_sn = 202;
    ran::pdcp_sn_t served = 200;
    int dropped = 0;
    // Arrivals every 250 us against one transmitted SDU every 400 us.
    for (int i = 0; i < 4000; ++i) {
        const sim::tick now = sim::from_ms(100) + i * sim::from_us(50);
        if (i % 5 == 0) {
            auto p = udp_pkt(net::ecn::not_ect);
            p.ft.dst_port = 7777;
            ingress_sns.push_back(next_sn);
            if (l.on_dl_packet(p, 1, 1, next_sn, now))
                ++next_sn;
            else
                ++dropped;
        }
        if (i % 8 == 7 && served + 1 < next_sn) {
            ++served;
            l.on_delivery_status(status(served, now), now);
            std::uint64_t above = 0;
            for (const ran::pdcp_sn_t sn : ingress_sns) above += sn > served;
            ASSERT_EQ(l.view(1, 1).standing_bytes, above * bytes) << "step " << i;
        }
    }
    EXPECT_GT(dropped, 50);
}

TEST(l4span_entity, feedback_for_departed_ue_does_not_resurrect_state)
{
    // Delivery status and discards are find-only: late F1-U feedback for a
    // detached (or re-established) UE must not re-create per-DRB state
    // under the dead RNTI.
    core::l4span l({});
    auto p = udp_pkt(net::ecn::ect1);
    l.on_dl_packet(p, 1, 1, 1, 0);
    ASSERT_EQ(l.tracked_ues(), (std::vector<ran::rnti_t>{1}));
    (void)l.detach_ue(1);
    EXPECT_TRUE(l.tracked_ues().empty());
    l.on_delivery_status(status(1, sim::from_ms(2)), sim::from_ms(2));
    l.on_dl_discard(1, 1, 1, sim::from_ms(2));
    EXPECT_TRUE(l.tracked_ues().empty())
        << "feedback events must never create state (packets do)";
}

TEST(l4span_entity, discard_reconciles_profile)
{
    core::l4span l({});
    auto p = udp_pkt(net::ecn::ect1);
    l.on_dl_packet(p, 1, 1, 1, 0);
    EXPECT_GT(l.view(1, 1).standing_bytes, 0u);
    l.on_dl_discard(1, 1, 1, sim::from_ms(1));
    EXPECT_EQ(l.view(1, 1).standing_bytes, 0u);
}

TEST(l4span_entity, view_of_unknown_drb_is_empty)
{
    core::l4span l({});
    const auto v = l.view(42, 9);
    EXPECT_DOUBLE_EQ(v.rate_hat_Bps, 0.0);
    EXPECT_LE(v.standing_bytes, 1300u) << "only the in-service SDU stands";
}

TEST(l4span_entity, resident_state_grows_with_flows)
{
    core::l4span l({});
    const auto before = l.resident_state_bytes();
    for (int i = 0; i < 50; ++i) {
        auto p = udp_pkt(net::ecn::ect1);
        p.ft.dst_port = static_cast<std::uint16_t>(3000 + i);
        l.on_dl_packet(p, 1, 1, static_cast<ran::pdcp_sn_t>(i + 1), 0);
    }
    EXPECT_GT(l.resident_state_bytes(), before);
}

TEST(l4span_entity, per_drb_isolation)
{
    core::l4span l({});
    auto a = udp_pkt(net::ecn::ect1);
    l.on_dl_packet(a, 1, 1, 1, 0);
    auto b = udp_pkt(net::ecn::ect0);
    b.ft.dst_port = 9999;
    l.on_dl_packet(b, 1, 2, 1, 0);
    EXPECT_TRUE(l.view(1, 1).has_l4s);
    EXPECT_FALSE(l.view(1, 1).has_classic);
    EXPECT_TRUE(l.view(1, 2).has_classic);
    EXPECT_FALSE(l.view(1, 2).has_l4s);
}
