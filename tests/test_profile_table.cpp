// Packet profile table (§4.3.2): watermark semantics, standing queue,
// discard reconciliation, pruning.
#include <gtest/gtest.h>

#include "core/profile_table.h"

using namespace l4span;
using namespace l4span::core;

TEST(profile_table, standing_bytes_track_ingress_and_tx)
{
    profile_table t;
    t.on_ingress(1, 1000, sim::from_ms(0));
    t.on_ingress(2, 500, sim::from_ms(1));
    t.on_ingress(3, 700, sim::from_ms(2));
    EXPECT_EQ(t.standing_bytes(), 2200u);
    EXPECT_EQ(t.standing_packets(), 3u);

    int txed = 0;
    t.on_transmitted(2, sim::from_ms(5), [&](ran::pdcp_sn_t, std::uint32_t) { ++txed; });
    EXPECT_EQ(txed, 2);
    EXPECT_EQ(t.standing_bytes(), 700u);
    EXPECT_EQ(t.standing_packets(), 1u);
}

TEST(profile_table, watermark_is_idempotent)
{
    profile_table t;
    t.on_ingress(1, 100, 0);
    t.on_ingress(2, 100, 0);
    int txed = 0;
    auto count = [&](ran::pdcp_sn_t, std::uint32_t) { ++txed; };
    t.on_transmitted(1, sim::from_ms(1), count);
    t.on_transmitted(1, sim::from_ms(2), count);  // repeated watermark
    EXPECT_EQ(txed, 1);
    t.on_transmitted(2, sim::from_ms(3), count);
    EXPECT_EQ(txed, 2);
}

TEST(profile_table, timestamps_recorded)
{
    profile_table t;
    t.on_ingress(7, 1000, sim::from_ms(3));
    t.on_transmitted(7, sim::from_ms(9), {});
    t.on_delivered(7, sim::from_ms(15));
    const std::optional<profile_entry> e = t.find(7);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->t_ingress, sim::from_ms(3));
    EXPECT_EQ(e->t_transmitted, sim::from_ms(9));
    EXPECT_EQ(e->t_delivered, sim::from_ms(15));
}

TEST(profile_table, head_age_is_oldest_standing)
{
    profile_table t;
    t.on_ingress(1, 100, sim::from_ms(0));
    t.on_ingress(2, 100, sim::from_ms(5));
    EXPECT_EQ(t.head_age(sim::from_ms(20)), sim::from_ms(20));
    t.on_transmitted(1, sim::from_ms(21), {});
    EXPECT_EQ(t.head_age(sim::from_ms(25)), sim::from_ms(20));  // sn2, age 25-5
    t.on_transmitted(2, sim::from_ms(26), {});
    EXPECT_EQ(t.head_age(sim::from_ms(30)), 0);
}

TEST(profile_table, discard_before_tx_removes_standing)
{
    profile_table t;
    t.on_ingress(1, 1000, 0);
    t.on_ingress(2, 500, 0);
    t.on_discard(1);
    EXPECT_EQ(t.standing_bytes(), 500u);
    // Watermark over a discarded SN does not re-count it.
    int txed = 0;
    t.on_transmitted(2, sim::from_ms(1), [&](ran::pdcp_sn_t sn, std::uint32_t) {
        EXPECT_EQ(sn, 2u);
        ++txed;
    });
    EXPECT_EQ(txed, 1);
    EXPECT_EQ(t.standing_bytes(), 0u);
}

TEST(profile_table, discard_is_idempotent_and_bounds_checked)
{
    profile_table t;
    t.on_ingress(5, 100, 0);
    t.on_discard(5);
    t.on_discard(5);
    t.on_discard(99);
    t.on_discard(1);
    EXPECT_EQ(t.standing_bytes(), 0u);
}

TEST(profile_table, prune_drops_settled_old_entries)
{
    profile_table t;
    for (ran::pdcp_sn_t sn = 1; sn <= 10; ++sn) t.on_ingress(sn, 100, 0);
    t.on_transmitted(5, sim::from_ms(1), {});
    t.on_delivered(5, sim::from_ms(2));
    t.prune(sim::from_sec(3), sim::from_sec(1));
    EXPECT_EQ(t.size(), 5u) << "only transmitted+old entries leave";
    EXPECT_EQ(t.standing_bytes(), 500u);
    // Untransmitted entries must survive pruning regardless of age.
    EXPECT_TRUE(t.find(6).has_value());
    EXPECT_FALSE(t.find(5).has_value());
}

TEST(profile_table, prune_then_continue_operating)
{
    profile_table t;
    for (ran::pdcp_sn_t sn = 1; sn <= 5; ++sn) t.on_ingress(sn, 100, 0);
    t.on_transmitted(5, sim::from_ms(1), {});
    t.prune(sim::from_sec(2), sim::from_sec(1));
    EXPECT_EQ(t.size(), 0u);
    t.on_ingress(6, 300, sim::from_sec(2));
    EXPECT_EQ(t.standing_bytes(), 300u);
    int txed = 0;
    t.on_transmitted(6, sim::from_sec(2) + 1, [&](ran::pdcp_sn_t, std::uint32_t) { ++txed; });
    EXPECT_EQ(txed, 1);
}

TEST(profile_table, reused_sn_of_a_dropped_packet_leaves_the_standing_queue)
{
    // The gNB consumes a PDCP SN only for an admitted packet, so a packet
    // the CU hook drops after ingress leaves its SN to the next one: two
    // slots carry SN 5. A watermark past 5 must cover both.
    profile_table t;
    t.on_ingress(5, 1000, 0);              // dropped by the hook
    t.on_ingress(5, 800, sim::from_ms(1));  // the next packet reuses SN 5
    t.on_ingress(6, 500, sim::from_ms(2));
    std::vector<ran::pdcp_sn_t> txed;
    const auto record = [&](ran::pdcp_sn_t sn, std::uint32_t) { txed.push_back(sn); };
    t.on_transmitted(5, sim::from_ms(3), record);
    EXPECT_EQ(t.standing_bytes(), 500u);
    EXPECT_EQ(t.standing_packets(), 1u);
    t.on_transmitted(7, sim::from_ms(4), record);
    EXPECT_EQ(t.standing_bytes(), 0u);
    EXPECT_EQ(t.standing_packets(), 0u);
    EXPECT_EQ(txed, (std::vector<ran::pdcp_sn_t>{5, 5, 6}));
}
