// gNB end-to-end: DL path through PDCP/RLC/MAC/HARQ to the UE, F1-U
// feedback, uplink return path.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "ran/gnb.h"

using namespace l4span;
using namespace l4span::ran;

namespace {

net::packet data_packet(std::uint32_t payload, std::uint64_t id = 1)
{
    net::packet p;
    p.ft.proto = net::ip_proto::udp;
    p.payload_bytes = payload;
    p.pkt_id = id;
    p.sent_time = 0;
    return p;
}

struct test_rig {
    sim::event_loop loop;
    std::unique_ptr<gnb> g;
    std::vector<net::packet> delivered;
    std::vector<net::packet> uplinked;
    std::vector<dl_delivery_status> statuses;

    struct hook : cu_hook {
        test_rig* rig;
        explicit hook(test_rig* r) : rig(r) {}
        bool on_dl_packet(net::packet&, rnti_t, drb_id_t, pdcp_sn_t, sim::tick) override
        {
            return true;
        }
        bool on_ul_packet(net::packet&, rnti_t, sim::tick) override { return true; }
        void on_delivery_status(const dl_delivery_status& st, sim::tick) override
        {
            rig->statuses.push_back(st);
        }
    };
    hook h{this};

    explicit test_rig(rlc_config rlc = {}, gnb_config cfg = {})
    {
        g = std::make_unique<gnb>(loop, cfg, sim::rng(5));
        const rnti_t ue = g->add_ue(chan::channel_profile::static_channel());
        g->add_drb(ue, rlc);
        g->set_cu_hook(&h);
        g->set_deliver_handler([this](rnti_t, drb_id_t, net::packet p, sim::tick) {
            delivered.push_back(std::move(p));
        });
        g->set_uplink_handler([this](rnti_t, net::packet p, sim::tick) {
            uplinked.push_back(std::move(p));
        });
        g->start();
    }
};

}  // namespace

TEST(gnb, delivers_downlink_to_ue)
{
    test_rig rig;
    for (int i = 0; i < 20; ++i) rig.g->deliver_downlink(data_packet(1400, i), 1, 1);
    rig.loop.run_until(sim::from_ms(100));
    EXPECT_EQ(rig.delivered.size(), 20u);
}

TEST(gnb, preserves_order_in_am)
{
    test_rig rig;
    for (std::uint64_t i = 0; i < 200; ++i) rig.g->deliver_downlink(data_packet(1400, i), 1, 1);
    rig.loop.run_until(sim::from_sec(2));
    ASSERT_EQ(rig.delivered.size(), 200u);
    for (std::uint64_t i = 0; i < 200; ++i) EXPECT_EQ(rig.delivered[i].pkt_id, i);
}

TEST(gnb, emits_f1u_transmit_and_delivery_feedback)
{
    test_rig rig;
    for (int i = 0; i < 10; ++i) rig.g->deliver_downlink(data_packet(1400, i), 1, 1);
    rig.loop.run_until(sim::from_ms(200));
    ASSERT_FALSE(rig.statuses.empty());
    bool any_txed = false, any_delivered = false;
    for (const auto& st : rig.statuses) {
        if (st.has_transmitted) any_txed = true;
        if (st.has_delivered) any_delivered = true;
    }
    EXPECT_TRUE(any_txed);
    EXPECT_TRUE(any_delivered) << "RLC AM must confirm delivery";
    EXPECT_EQ(rig.statuses.back().highest_delivered_sn, 10u);
}

TEST(gnb, um_mode_reports_transmit_only)
{
    rlc_config cfg;
    cfg.mode = rlc_mode::um;
    test_rig rig(cfg);
    for (int i = 0; i < 10; ++i) rig.g->deliver_downlink(data_packet(1400, i), 1, 1);
    rig.loop.run_until(sim::from_ms(200));
    ASSERT_FALSE(rig.statuses.empty());
    for (const auto& st : rig.statuses) EXPECT_FALSE(st.has_delivered);
    EXPECT_GE(rig.delivered.size(), 9u) << "UM still delivers (HARQ hides most loss)";
}

TEST(gnb, queue_overflow_drops_at_admission)
{
    rlc_config cfg;
    cfg.max_queue_sdus = 8;
    test_rig rig(cfg);
    for (int i = 0; i < 100; ++i) rig.g->deliver_downlink(data_packet(1400, i), 1, 1);
    // Queue admits only 8 before the MAC drains anything (first slot at 0.5 ms).
    EXPECT_LE(rig.g->rlc(1, 1).queued_sdus(), 8u);
    rig.loop.run_until(sim::from_ms(100));
    EXPECT_LT(rig.delivered.size(), 100u);
    EXPECT_GE(rig.delivered.size(), 8u);
}

TEST(gnb, uplink_reaches_core_in_order)
{
    test_rig rig;
    for (std::uint64_t i = 0; i < 50; ++i) {
        net::packet ack;
        ack.ft.proto = net::ip_proto::tcp;
        ack.tcp = net::tcp_header{};
        ack.tcp->flags.ack = true;
        ack.pkt_id = i;
        rig.g->send_uplink(1, std::move(ack));
    }
    rig.loop.run_until(sim::from_ms(100));
    ASSERT_EQ(rig.uplinked.size(), 50u);
    for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(rig.uplinked[i].pkt_id, i);
}

TEST(gnb, uplink_waits_for_ul_slot)
{
    test_rig rig;
    net::packet ack;
    ack.ft.proto = net::ip_proto::udp;
    rig.g->send_uplink(1, std::move(ack));
    rig.loop.run_until(sim::from_us(100));
    EXPECT_TRUE(rig.uplinked.empty()) << "no UL opportunity yet";
    rig.loop.run_until(sim::from_ms(20));
    EXPECT_EQ(rig.uplinked.size(), 1u);
}

TEST(gnb, throughput_close_to_calibrated_capacity)
{
    test_rig rig;
    // Saturate: a deep backlog, then measure delivered bytes over 2 s.
    for (int i = 0; i < 12000; ++i) rig.g->deliver_downlink(data_packet(1400, i), 1, 1);
    rig.loop.run_until(sim::from_sec(2));
    std::uint64_t bytes = 0;
    for (const auto& p : rig.delivered) bytes += p.payload_bytes;
    const double mbps = static_cast<double>(bytes) * 8.0 / 2.0 / 1e6;
    EXPECT_GT(mbps, 28.0) << "calibrated cell should carry ~40 Mbit/s";
    EXPECT_LT(mbps, 50.0);
}

TEST(gnb, unknown_rnti_throws)
{
    test_rig rig;
    EXPECT_THROW(rig.g->rlc(99, 1), std::out_of_range);
}

// --- cached per-UE backlog --------------------------------------------------

namespace {

// Sum of the UE's RLC backlogs, the quantity the gNB's cached per-UE total
// must mirror.
std::uint64_t summed_backlog(gnb& g, rnti_t ue, int drbs)
{
    std::uint64_t sum = 0;
    for (int d = 1; d <= drbs; ++d) sum += g.rlc(ue, static_cast<drb_id_t>(d)).backlog_bytes();
    return sum;
}

struct discard_counter : cu_hook {
    int discards = 0;
    bool on_dl_packet(net::packet&, rnti_t, drb_id_t, pdcp_sn_t, sim::tick) override
    {
        return true;
    }
    bool on_ul_packet(net::packet&, rnti_t, sim::tick) override { return true; }
    void on_delivery_status(const dl_delivery_status&, sim::tick) override {}
    void on_dl_discard(rnti_t, drb_id_t, pdcp_sn_t, sim::tick) override { ++discards; }
};

}  // namespace

TEST(gnb, cached_backlog_tracks_rlc_through_harq_loss_discard_and_handover)
{
    // A lossy HARQ configuration: TBs often exhaust their attempts, so RLC
    // AM requeues SDUs (on_tb_lost) and, after one retransmission, discards
    // them — every backlog-changing path runs while slots keep pulling.
    gnb_config cfg;
    cfg.mac.initial_bler = 0.5;
    cfg.mac.retx_bler = 0.5;
    cfg.mac.max_harq_tx = 2;
    rlc_config rlc;
    rlc.max_rlc_retx = 1;
    constexpr int k_drbs = 2;

    sim::event_loop loop;
    gnb src(loop, cfg, sim::rng(17));
    gnb dst(loop, cfg, sim::rng(18));
    discard_counter hook;
    src.set_cu_hook(&hook);
    dst.set_cu_hook(&hook);
    std::vector<rnti_t> ues;
    for (const auto& prof : {chan::channel_profile::static_channel(),
                             chan::channel_profile::pedestrian(),
                             chan::channel_profile::vehicular()}) {
        const rnti_t ue = src.add_ue(prof);
        for (int d = 0; d < k_drbs; ++d) src.add_drb(ue, rlc);
        src.map_qos_flow(ue, 2, 2);
        ues.push_back(ue);
    }
    // The source cell's link-adaptation queries for the UE that will move,
    // before and after its detach.
    const rnti_t moved = ues[1];
    bool detached = false;
    int queries_before = 0;
    int queries_after = 0;
    src.set_linklog_handler([&](rnti_t ue, sim::tick, int, int, std::uint32_t) {
        if (ue == moved) ++(detached ? queries_after : queries_before);
    });
    src.start();
    dst.start();

    std::uint64_t id = 0;
    auto offer = [&](gnb& g, rnti_t ue) {
        for (int i = 0; i < 6; ++i)
            g.deliver_downlink(data_packet(900 + 100 * (i % 5), ++id), ue,
                               static_cast<qfi_t>(1 + i % 2));
    };
    auto check = [&](gnb& g, const std::vector<rnti_t>& attached) {
        for (const rnti_t ue : attached)
            ASSERT_EQ(g.backlog_bytes(ue), summed_backlog(g, ue, k_drbs))
                << "rnti " << ue << " at " << loop.now();
    };

    // Enqueue + pull + HARQ-exhaustion requeue + discard, checked every
    // half slot (enqueue-only and post-slot states both get inspected).
    for (sim::tick t = 0; t < sim::from_ms(400); t += sim::from_us(250)) {
        for (const rnti_t ue : ues) offer(src, ue);
        check(src, ues);
        loop.run_until(t + sim::from_us(250));
        check(src, ues);
    }
    EXPECT_GT(hook.discards, 0) << "the lossy config must reach the discard path";
    ASSERT_GT(src.backlog_bytes(moved), 0u) << "handover must carry a backlog";

    // X2 handover of the moving UE with a standing backlog: the source's total drops
    // to zero with the export, the target's starts from the forwarded data.
    ue_handover_context ctx = src.detach_ue(moved);
    detached = true;
    EXPECT_FALSE(src.has_ue(moved));
    EXPECT_EQ(src.active_ues(), 2u);
    EXPECT_EQ(src.active_rntis(), (std::vector<rnti_t>{ues[0], ues[2]}));
    std::uint64_t forwarded = 0;
    for (const auto& d : ctx.drbs)
        for (const auto& sdu : d.tx.forwarded) forwarded += sdu.size;
    const rnti_t arrived = dst.attach_ue(std::move(ctx));
    EXPECT_EQ(dst.backlog_bytes(arrived), forwarded);
    check(dst, {arrived});
    const std::vector<rnti_t> stayed = {ues[0], ues[2]};
    for (sim::tick t = loop.now(); t < sim::from_ms(700); t += sim::from_us(250)) {
        for (const rnti_t ue : stayed) offer(src, ue);
        offer(dst, arrived);
        loop.run_until(t + sim::from_us(250));
        check(src, stayed);
        check(dst, {arrived});
    }

    // The source never asked its scheduler about the detached RNTI again.
    EXPECT_GT(queries_before, 0);
    EXPECT_EQ(queries_after, 0);
}

// --- round-robin rotation regime --------------------------------------------

namespace {

struct link_record {
    rnti_t ue;
    int mcs;
    int prbs;
};

// A round-robin cell whose UEs all hold a deep downlink backlog for the whole
// run, with its link log (one record per channel query) grouped by DL slot.
struct backlogged_cell {
    sim::event_loop loop;
    gnb g;
    std::map<sim::tick, std::vector<link_record>> slots;

    backlogged_cell(const std::vector<chan::channel_profile>& profiles, gnb_config cfg)
        : g(loop, cfg, sim::rng(29))
    {
        for (const auto& prof : profiles) g.add_drb(g.add_ue(prof), rlc_config{});
        g.set_linklog_handler(
            [this](rnti_t ue, sim::tick now, int mcs, int prbs, std::uint32_t) {
                slots[now].push_back({ue, mcs, prbs});
            });
        g.start();
        std::uint64_t id = 0;
        for (rnti_t ue = 1; ue <= static_cast<rnti_t>(profiles.size()); ++ue)
            for (int i = 0; i < 200; ++i)
                g.deliver_downlink(data_packet(1400, ++id), ue, 1);
        loop.run_until(sim::from_ms(200));
    }
};

std::vector<chan::channel_profile> static_ues(int n)
{
    return std::vector<chan::channel_profile>(static_cast<std::size_t>(n),
                                              chan::channel_profile::static_channel());
}

// No HARQ failures, so no retransmission claims PRBs before the fresh grants:
// every DL slot has the full n_prb available.
gnb_config lossless()
{
    gnb_config cfg;
    cfg.mac.initial_bler = 0.0;
    cfg.mac.retx_bler = 0.0;
    return cfg;
}

}  // namespace

TEST(gnb, round_robin_queries_at_most_n_prb_ues_per_dl_slot)
{
    // 64 backlogged UEs, 51 PRBs: at most 51 UEs can get a PRB in a slot,
    // so the scheduler asks the channel about no more than that.
    backlogged_cell cell(static_ues(64), gnb_config{});
    ASSERT_GT(cell.slots.size(), 100u);
    for (const auto& [t, recs] : cell.slots)
        EXPECT_LE(recs.size(), static_cast<std::size_t>(cell.g.config().mac.n_prb))
            << "slot at " << t;
}

TEST(gnb, round_robin_queries_every_backlogged_ue_once_in_a_small_cell)
{
    backlogged_cell cell(static_ues(51), gnb_config{});
    ASSERT_GT(cell.slots.size(), 100u);
    for (const auto& [t, recs] : cell.slots) {
        std::set<rnti_t> seen;
        for (const auto& r : recs) seen.insert(r.ue);
        EXPECT_EQ(recs.size(), 51u) << "slot at " << t;
        EXPECT_EQ(seen.size(), 51u) << "slot at " << t;
    }
}

TEST(gnb, round_robin_rotation_grants_every_available_prb)
{
    backlogged_cell cell(static_ues(64), lossless());
    ASSERT_GT(cell.slots.size(), 100u);
    for (const auto& [t, recs] : cell.slots) {
        int granted = 0;
        for (const auto& r : recs) granted += r.prbs;
        EXPECT_EQ(granted, cell.g.config().mac.n_prb) << "slot at " << t;
    }
}

TEST(gnb, round_robin_rotation_serves_every_backlogged_ue_within_one_rotation)
{
    // With HARQ retransmissions claiming part of some slots, every UE still
    // gets a PRB at least once in any 64 consecutive DL slots (one pass of
    // the rotation over the 64 attached UEs).
    constexpr int k_ues = 64;
    backlogged_cell cell(static_ues(k_ues), gnb_config{});
    std::vector<int> last_grant(k_ues + 1, -1);
    int slot = 0;
    int worst_gap = 0;
    for (const auto& [t, recs] : cell.slots) {
        for (const auto& r : recs) {
            if (r.prbs == 0) continue;
            worst_gap = std::max(worst_gap, slot - last_grant[r.ue]);
            last_grant[r.ue] = slot;
        }
        ++slot;
    }
    for (rnti_t ue = 1; ue <= k_ues; ++ue) {
        ASSERT_GE(last_grant[ue], 0) << "rnti " << ue << " never granted";
        worst_gap = std::max(worst_gap, slot - last_grant[ue]);
    }
    EXPECT_LE(worst_gap, k_ues);
}

TEST(gnb, round_robin_rotation_advances_one_ue_per_slot_across_detaches)
{
    // The rotation position is a place in the attached list, not a slot
    // counter, so a handover that shrinks the list does not make it jump:
    // each DL slot's walk starts at the UE after the previous slot's start.
    // (The walk logs its candidates in walk order, so the first record of
    // a slot is its start.)
    sim::event_loop loop;
    gnb g(loop, lossless(), sim::rng(31));
    constexpr int k_ues = 80;
    for (int u = 0; u < k_ues; ++u)
        g.add_drb(g.add_ue(chan::channel_profile::static_channel()), rlc_config{});
    std::map<sim::tick, rnti_t> first;
    g.set_linklog_handler([&](rnti_t ue, sim::tick now, int, int, std::uint32_t) {
        first.try_emplace(now, ue);
    });
    g.start();
    std::uint64_t id = 0;
    for (rnti_t ue = 1; ue <= k_ues; ++ue)
        for (int i = 0; i < 200; ++i) g.deliver_downlink(data_packet(1400, ++id), ue, 1);

    rnti_t prev = 0;
    int checked = 0;
    // At most 25 detaches leave at least 55 UEs: still more backlogged UEs
    // than PRBs.
    for (int slot = 1; slot <= 250; ++slot) {
        loop.run_until(slot * g.config().mac.slot);
        const auto it = first.find(loop.now());
        if (it == first.end()) continue;  // not a DL slot, or data not yet in
        const std::vector<rnti_t> active = g.active_rntis();
        if (prev != 0) {
            const auto at = std::find(active.begin(), active.end(), prev);
            ASSERT_NE(at, active.end());
            const rnti_t next = std::next(at) == active.end() ? active.front() : *std::next(at);
            EXPECT_EQ(it->second, next) << "slot " << slot;
            ++checked;
        }
        prev = it->second;
        // Every tenth slot a UE after the start leaves by handover.
        if (slot % 10 == 0 && active.back() != prev) g.detach_ue(active.back());
    }
    EXPECT_GT(checked, 150);
    EXPECT_LE(g.active_ues(), static_cast<std::size_t>(k_ues) - 20);
}

TEST(gnb, round_robin_rotation_logs_below_mcs0_ue_without_a_candidate_place)
{
    // UE 11 sits far below MCS0: whenever the walk reaches it, the query is
    // logged with mcs -1 and no PRB, and the slot still gathers n_prb
    // candidates from the other UEs.
    std::vector<chan::channel_profile> profiles = static_ues(64);
    const rnti_t dead = 11;
    profiles[dead - 1] = chan::channel_profile::static_channel(-40.0);
    backlogged_cell cell(profiles, lossless());
    const int n_prb = cell.g.config().mac.n_prb;
    int dead_queries = 0;
    for (const auto& [t, recs] : cell.slots) {
        int candidates = 0;
        for (const auto& r : recs) {
            if (r.ue == dead) {
                ++dead_queries;
                EXPECT_EQ(r.mcs, -1);
                EXPECT_EQ(r.prbs, 0);
            } else {
                EXPECT_GE(r.mcs, 0);
                ++candidates;
            }
        }
        EXPECT_EQ(candidates, n_prb) << "slot at " << t;
    }
    EXPECT_GT(dead_queries, 0);
}
