// The gNB: CU-UP (SDAP/PDCP + CU hook slot for L4Span) and DU (RLC + MAC +
// HARQ) plus the uplink TDD return path. This is the substrate the paper's
// prototype embeds into srsRAN; here it is a faithful discrete-event model.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "chan/fading.h"
#include "chan/link_model.h"
#include "chan/mcs.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "obs/trace.h"
#include "ran/cu_hook.h"
#include "ran/mac.h"
#include "ran/pdcp.h"
#include "ran/rlc.h"
#include "ran/sdap.h"
#include "ran/types.h"
#include "sim/event_loop.h"
#include "sim/rng.h"

namespace l4span::ran {

struct gnb_config {
    mac_config mac;
    sim::tick f1u_latency = 0;          // CU and DU co-located by default
    sim::tick core_latency = sim::from_ms(1);  // UPF/GTP-U hop
    sim::tick ul_proc_jitter = sim::from_ms(2);
    // Radio link failure detection during an injected outage: declared after
    // this many consecutive failed TB conclusions (out-of-sync evidence), or
    // after the T310-style supervision timer for a UE with no downlink
    // backlog — whichever comes first.
    int rlf_consecutive_harq = 8;
    sim::tick rlf_timer = sim::from_ms(200);
};

// X2/Xn handover context: everything a target cell needs to resume serving
// a UE — SN status transfer, forwarded downlink data, the QFI map, and the
// CU hook's opaque marking state (filled in by the scenario layer that owns
// the hook; the gNB only carries it).
struct ue_handover_context {
    chan::channel_profile profile;
    // Set when the source UE's link model migrates with it (a trace-driven
    // channel carries its replay cursor); empty for fading channels, whose
    // realization the target cell re-draws from `profile`.
    std::unique_ptr<chan::link_model> link;
    struct drb_context {
        drb_id_t id = 0;
        rlc_config cfg;
        pdcp_sn_t pdcp_next_sn = 1;
        rlc_tx::context tx;
        rlc_rx::context rx;
    };
    std::vector<drb_context> drbs;
    std::vector<std::pair<qfi_t, drb_id_t>> qfi_map;
    std::unique_ptr<cu_hook::ue_state> hook_state;
};

class gnb {
public:
    // (ue, drb, packet, now): SDU delivered to the UE's upper stack.
    using deliver_handler = std::function<void(rnti_t, drb_id_t, net::packet, sim::tick)>;
    // (ue, packet, now): uplink packet heading to the core/server.
    using uplink_handler = std::function<void(rnti_t, net::packet, sim::tick)>;
    // (ue, drb, bytes, now): ground-truth MAC transmission log (Fig. 20).
    using txlog_handler = std::function<void(rnti_t, drb_id_t, std::uint32_t, sim::tick)>;
    // (ue, now, mcs, prbs, tb_bytes): per-slot DCI/link-adaptation log, one
    // call per scheduler channel query — exactly the stream a trace replay
    // must reproduce (mcs is -1 when the UE was below MCS0 and skipped).
    // Plug chan::trace_recorder::on_link_slot here to capture a run.
    using linklog_handler =
        std::function<void(rnti_t, sim::tick, int, int, std::uint32_t)>;
    // (ue, now): the gNB declared radio link failure for the UE (called at
    // most once per outage; the handler is expected to detach the UE).
    using rlf_handler = std::function<void(rnti_t, sim::tick)>;

    gnb(sim::event_loop& loop, gnb_config cfg, sim::rng rng);

    // --- topology construction ---
    // Fading channel drawn from `profile`, or an explicit link model (e.g.
    // a chan::trace_channel). Either way the UE consumes exactly one fork
    // of the gNB RNG, so a fading run and its trace replay draw identical
    // HARQ/uplink randomness — the record→replay bit-identity contract.
    rnti_t add_ue(chan::channel_profile profile);
    rnti_t add_ue(std::unique_ptr<chan::link_model> link);
    drb_id_t add_drb(rnti_t ue, rlc_config cfg);
    void map_qos_flow(rnti_t ue, qfi_t qfi, drb_id_t drb);

    // --- X2/Xn handover ---
    // Exports the UE's bearer state (SN status + forwarded data) and detaches
    // it: the RNTI stops resolving, straggler events for it (in-flight HARQ
    // TBs, OTA deliveries, stale uplink) are dropped, and RNTIs are never
    // reused. The hook_state member is left empty — the caller owns the hook.
    ue_handover_context detach_ue(rnti_t ue);
    // Admits a handed-over UE under a freshly assigned RNTI (the channel
    // realization is re-drawn for the new cell; the profile is carried over).
    rnti_t attach_ue(ue_handover_context ctx);
    bool has_ue(rnti_t ue) const
    {
        return ue >= 1 && static_cast<std::size_t>(ue) <= rnti_slots_.size() &&
               rnti_slots_[ue - 1] != nullptr;
    }

    // --- fault injection: radio outage + RLF detection ---
    // The UE's radio link collapses: every TB concluded while in outage
    // fails (no RNG draw, so the HARQ randomness of other UEs is
    // undisturbed), and the gNB detects RLF via rlf_consecutive_harq failed
    // conclusions or the rlf_timer fallback, then fires the rlf_handler
    // once. Both calls are safe no-ops for unknown/detached RNTIs.
    void begin_outage(rnti_t ue);
    void end_outage(rnti_t ue);
    bool in_outage(rnti_t ue);

    void set_cu_hook(cu_hook* hook) { hook_ = hook; }
    void set_rlf_handler(rlf_handler h) { on_rlf_ = std::move(h); }
    void set_deliver_handler(deliver_handler h) { on_deliver_ = std::move(h); }
    void set_uplink_handler(uplink_handler h) { on_uplink_ = std::move(h); }
    void set_txlog_handler(txlog_handler h) { on_txlog_ = std::move(h); }
    void set_linklog_handler(linklog_handler h) { on_linklog_ = std::move(h); }
    // Layer-boundary trace points (SDAP ingress, RLC enqueue/deliver/discard,
    // MAC TB transmission, HARQ conclusions, RLF). nullptr (the default)
    // disables tracing at the cost of one predictable branch per site.
    void set_tracer(obs::tracer* t) { tracer_ = t; }

    // Starts the slot clock. Call once after all UEs are added.
    void start();

    // --- data path ---
    // Downlink packet arriving from the 5G core for `ue` (QFI selects DRB).
    void deliver_downlink(net::packet pkt, rnti_t ue, qfi_t qfi);
    // UE hands an uplink packet (e.g., a TCP ACK) to its modem.
    void send_uplink(rnti_t ue, net::packet pkt);

    // --- introspection (benchmark instrumentation) ---
    rlc_tx& rlc(rnti_t ue, drb_id_t drb);
    const rlc_tx& rlc(rnti_t ue, drb_id_t drb) const;
    double current_snr_db(rnti_t ue);
    int current_mcs(rnti_t ue);
    std::size_t num_ues() const { return ues_.size(); }
    // Attached (non-tombstone) UEs, in stable scheduler-index order — the
    // chaos-soak "no dangling RNTI" invariant compares this against the
    // scenario layer's view.
    std::size_t active_ues() const { return attached_.size(); }
    std::vector<rnti_t> active_rntis() const;
    // The UE's downlink backlog as the scheduler sees it: the per-UE total
    // its RLC entities mirror, always equal to the sum of
    // rlc(ue, drb).backlog_bytes() over the UE's bearers.
    std::uint64_t backlog_bytes(rnti_t ue) { return find_ue(ue).backlog; }
    const gnb_config& config() const { return cfg_; }
    std::uint64_t slots_elapsed() const { return slot_count_; }

    // Delay-breakdown taps (Fig. 10).
    void set_delay_handler(rlc_tx::delay_handler h);

    // Approximate resident state of the DU queues (Table 1 substitute).
    std::size_t resident_state_bytes() const;

private:
    struct drb_ctx {
        drb_id_t id;
        pdcp_tx pdcp;
        std::unique_ptr<rlc_tx> tx;
        std::unique_ptr<rlc_rx> rx;
    };
    struct harq_tb {
        rnti_t ue;
        drb_id_t drb;
        std::uint32_t bytes;
        int prbs;
        int attempt;
        std::vector<tb_chunk> chunks;
    };
    struct ue_ctx {
        // What every DL slot reads comes first, within one cache line.
        rnti_t rnti;
        std::uint32_t index;  // dense scheduler index
        // `channel` when it is a fading model, else nullptr: the slot loop
        // queries it through the final class, without a virtual call.
        chan::fading_channel* fading;
        std::unique_ptr<chan::link_model> channel;
        // Sum of the bearers' RLC backlog, kept current by each rlc_tx
        // (set_backlog_mirror); zero once detached.
        std::uint64_t backlog = 0;
        std::vector<harq_tb> pending_retx{};  // due HARQ retransmissions
        sdap_entity sdap{};
        std::vector<drb_ctx> drbs{};
        sim::tick last_ul_release = 0;  // keeps the uplink FIFO per UE
        // Injected radio outage (fault injection): TBs fail, RLF detection
        // is armed. Cleared by end_outage or detach.
        bool in_outage = false;
        int harq_fail_streak = 0;
        bool rlf_declared = false;
        sim::event_loop::event_id rlf_timer_id = 0;
    };

    rnti_t add_ue_impl(std::unique_ptr<chan::link_model> link);
    void declare_rlf(ue_ctx& u);
    void on_slot();
    void transmit_tb(ue_ctx& ue, drb_ctx& drb, std::vector<tb_chunk> chunks,
                     std::uint32_t bytes, int prbs, int attempt);
    void conclude_tb(harq_tb tb);
    // Every drop path for an in-flight chunk vector funnels here: the pool
    // references are released and the vector's capacity is recycled.
    void release_chunks(std::vector<tb_chunk>& chunks);
    std::vector<tb_chunk> take_chunk_vec();
    void give_chunk_vec(std::vector<tb_chunk> v);
    bool is_dl_slot(std::uint64_t slot_idx, double& capacity_factor) const;
    drb_ctx& find_drb(ue_ctx& ue, drb_id_t id);
    ue_ctx& find_ue(rnti_t ue);
    // nullptr when the RNTI is unknown or detached — the graceful path for
    // events that may race a handover.
    ue_ctx* try_ue(rnti_t ue);
    drb_ctx* try_drb(ue_ctx& ue, drb_id_t id);

    sim::event_loop& loop_;
    gnb_config cfg_;
    sim::rng rng_;
    prb_allocator allocator_;
    // Arena for every packet the DU holds (RLC queues, ARQ retention,
    // in-flight TB chunks) — one pooled slot per live SDU instead of a
    // copy per hop.
    net::packet_pool pool_;
    // Every UE ever added, indexed by dense scheduler index. A UE detached
    // by handover stays as a tombstone (the PRB allocator's index space
    // never shrinks) but carries no bearers or backlog.
    std::vector<std::unique_ptr<ue_ctx>> ues_;
    // The attached UEs, in scheduler-index order: the slot loop walks this
    // list, so its cost does not grow with the tombstones.
    std::vector<ue_ctx*> attached_;
    // RNTIs are assigned sequentially from 1 and never reused, so the
    // lookup table is a dense vector indexed by rnti-1 (nullptr after
    // detach), not a hash map — try_ue is one bounds check and a load.
    std::vector<ue_ctx*> rnti_slots_;
    cu_hook* hook_ = nullptr;
    obs::tracer* tracer_ = nullptr;
    deliver_handler on_deliver_;
    uplink_handler on_uplink_;
    rlf_handler on_rlf_;
    txlog_handler on_txlog_;
    linklog_handler on_linklog_;
    rlc_tx::delay_handler on_delay_;
    rnti_t next_rnti_ = 1;
    std::uint64_t slot_count_ = 0;
    // Round-robin rotation position over attached_: used and advanced one
    // place in each DL slot with more backlogged UEs than PRBs.
    std::size_t rr_pos_ = 0;
    bool started_ = false;
    // Per-slot scratch (scheduler inputs, grants, the per-UE DRB
    // round-robin list) and a small free list of chunk vectors so the
    // pull -> HARQ -> deliver pipeline reuses capacity instead of
    // allocating a vector per transport block.
    std::vector<sched_input> sched_inputs_;
    std::vector<ue_ctx*> sched_who_;
    std::vector<int> sched_mcs_;
    std::vector<int> sched_grants_;
    std::vector<drb_ctx*> drb_active_;
    std::vector<std::vector<tb_chunk>> chunk_vec_pool_;
};

}  // namespace l4span::ran
