#include "ran/rlc.h"

#include <algorithm>

namespace l4span::ran {

bool rlc_tx::enqueue(pdcp_sdu sdu, sim::tick now)
{
    if (!has_room()) {
        ++drops_;
        return false;
    }
    queued_sdu q;
    q.sn = sdu.sn;
    q.size = sdu.size;
    q.ingress_time = sdu.ingress_time;
    q.pkt = pool_.put(std::move(sdu.pkt));
    if (queue_.empty() && retx_queue_.empty()) q.head_time = now;
    fresh_bytes_ += q.size;
    mirror_backlog(q.size);
    queue_.push_back(q);
    return true;
}

void rlc_tx::pull(std::uint32_t grant_bytes, sim::tick now, std::vector<tb_chunk>& out)
{
    std::uint32_t remaining = grant_bytes;
    bool txed_any = false;

    // Retransmissions first (standard RLC AM behaviour).
    while (remaining > 0 && !retx_queue_.empty()) {
        retx_sdu& r = retx_queue_.front();
        const std::uint32_t left = r.size - r.sent;
        const std::uint32_t take = std::min(left, remaining);
        tb_chunk c;
        c.sn = r.sn;
        c.bytes = take;
        c.sdu_total = r.size;
        c.is_retx = true;
        c.carries_last = (r.sent + take == r.size);
        r.sent += take;
        remaining -= take;
        retx_bytes_ -= take;
        total_txed_bytes_ += take;
        if (c.carries_last) {
            // The chunk and the ARQ retention window share the slot.
            pool_.add_ref(r.pkt);
            c.pkt = r.pkt;
            awaiting_delivery_.get_or_create(r.sn) = {r.pkt, r.retx_count};
            retx_queue_.pop_front();
        }
        out.push_back(c);
        txed_any = true;
    }

    while (remaining > 0 && !queue_.empty()) {
        queued_sdu& q = queue_.front();
        if (q.head_time < 0) q.head_time = now;
        const std::uint32_t left = q.size - q.sent;
        const std::uint32_t take = std::min(left, remaining);
        tb_chunk c;
        c.sn = q.sn;
        c.bytes = take;
        c.sdu_total = q.size;
        c.carries_last = (q.sent + take == q.size);
        q.sent += take;
        remaining -= take;
        fresh_bytes_ -= take;
        total_txed_bytes_ += take;
        if (c.carries_last) {
            if (on_delay_) {
                sdu_delay_report rep;
                rep.sn = q.sn;
                rep.queuing = std::max<sim::tick>(0, q.head_time - q.ingress_time);
                rep.scheduling = std::max<sim::tick>(0, now - q.head_time);
                on_delay_(rep);
            }
            highest_txed_ = q.sn;
            any_txed_ = true;
            c.pkt = q.pkt;
            if (cfg_.mode == rlc_mode::am) {
                // Chunk + retention window share the slot; UM hands the
                // queue's only reference to the chunk.
                pool_.add_ref(q.pkt);
                awaiting_delivery_.get_or_create(q.sn) = {q.pkt, q.retx_count};
            }
            queue_.pop_front();
            if (!queue_.empty()) queue_.front().head_time = now;
        }
        out.push_back(c);
        txed_any = true;
    }

    mirror_backlog(-static_cast<std::uint64_t>(grant_bytes - remaining));
    if (txed_any) emit_status(now);
}

rlc_tx::context rlc_tx::export_context()
{
    context ctx;
    ctx.delivered_watermark = delivered_watermark_;
    ctx.any_delivered = any_delivered_;

    // Unacknowledged SDUs: fully transmitted awaiting RLC ACK, plus pending
    // ARQ retransmissions. Sorted by SN so the target retransmits in order
    // (the awaiting ring iterates in SN order already; retx entries are
    // merged in — a deterministic export order is what keeps sharded runs
    // byte-identical).
    std::vector<pdcp_sdu> unacked;
    unacked.reserve(awaiting_delivery_.size() + retx_queue_.size());
    awaiting_delivery_.for_each([&](pdcp_sn_t sn, awaiting_sdu& entry) {
        pdcp_sdu s;
        s.sn = sn;
        s.pkt = pool_.take(entry.pkt);  // in-flight chunks may still share it
        s.size = s.pkt.size_bytes();
        unacked.push_back(std::move(s));
    });
    for (auto& r : retx_queue_) {
        pdcp_sdu s;
        s.sn = r.sn;
        s.pkt = pool_.take(r.pkt);
        s.size = r.size;
        unacked.push_back(std::move(s));
    }
    std::sort(unacked.begin(), unacked.end(),
              [](const pdcp_sdu& a, const pdcp_sdu& b) { return a.sn < b.sn; });
    ctx.forwarded = std::move(unacked);
    // Fresh queue behind them, already in SN order. A partially pulled head
    // SDU is forwarded whole and re-sent from scratch by the target.
    for (auto& q : queue_) {
        pdcp_sdu s;
        s.sn = q.sn;
        s.pkt = pool_.take(q.pkt);
        s.size = q.size;
        s.ingress_time = q.ingress_time;
        ctx.forwarded.push_back(std::move(s));
    }

    queue_.clear();
    retx_queue_.clear();
    awaiting_delivery_.clear();
    mirror_backlog(-backlog_bytes());
    fresh_bytes_ = 0;
    retx_bytes_ = 0;
    return ctx;
}

void rlc_tx::restore(context ctx, sim::tick now)
{
    delivered_watermark_ = ctx.delivered_watermark;
    any_delivered_ = ctx.any_delivered;
    for (auto& s : ctx.forwarded) {
        queued_sdu q;
        q.sn = s.sn;
        q.size = s.size;
        q.ingress_time = now;  // re-enqueued at the target cell
        q.pkt = pool_.put(std::move(s.pkt));
        if (queue_.empty()) q.head_time = now;
        fresh_bytes_ += q.size;
        mirror_backlog(q.size);
        queue_.push_back(q);
    }
}

void rlc_tx::on_tb_lost(const std::vector<tb_chunk>& chunks, sim::tick now)
{
    if (cfg_.mode == rlc_mode::um) return;  // UM: lost is lost
    for (const auto& c : chunks) {
        // Retransmit the whole SDU (segment-level NACK granularity is below
        // the fidelity the queueing model needs). Only the chunk carrying
        // the last byte maps to a retention-window entry.
        if (!c.carries_last) continue;
        awaiting_sdu* e = awaiting_delivery_.find(c.sn);
        if (!e) continue;  // already confirmed/requeued
        const int prior_retx = e->retx_count;
        if (prior_retx + 1 > cfg_.max_rlc_retx) {
            // Give up: PDCP-level discard. The SN hole is reported so the
            // receive side and L4Span can reconcile.
            if (on_discard_) on_discard_(c.sn, now);
            pool_.release(e->pkt);
            awaiting_delivery_.erase(c.sn);
            continue;
        }
        retx_sdu r;
        r.pkt = e->pkt;  // the retention reference moves to the retx queue
        r.sn = c.sn;
        r.size = c.sdu_total;
        r.retx_count = prior_retx + 1;
        retx_bytes_ += r.size;
        mirror_backlog(r.size);
        retx_queue_.push_back(r);
        awaiting_delivery_.erase(c.sn);
    }
}

void rlc_tx::on_delivery_confirmed(pdcp_sn_t ack_sn, sim::tick now)
{
    if (cfg_.mode == rlc_mode::um) return;
    if (any_delivered_ && ack_sn <= delivered_watermark_) return;
    // Release retained packets up to the cumulative ACK. SNs below the
    // watermark can never re-enter the window (a lost SN awaiting
    // retransmission blocks the receive-side watermark), so the ring base
    // advances with the ACK.
    const pdcp_sn_t from = any_delivered_ ? delivered_watermark_ + 1 : 1;
    for (pdcp_sn_t sn = from; sn <= ack_sn; ++sn)
        if (awaiting_sdu* e = awaiting_delivery_.find(sn)) {
            pool_.release(e->pkt);
            awaiting_delivery_.erase(sn);
        }
    awaiting_delivery_.advance_to(ack_sn + 1);
    delivered_watermark_ = ack_sn;
    any_delivered_ = true;
    emit_status(now);
}

void rlc_tx::emit_status(sim::tick now)
{
    if (!on_status_) return;
    dl_delivery_status st;
    st.ue = ue_;
    st.drb = drb_;
    st.highest_transmitted_sn = highest_txed_;
    st.has_transmitted = any_txed_;
    st.highest_delivered_sn = delivered_watermark_;
    st.has_delivered = any_delivered_ && cfg_.mode == rlc_mode::am;
    st.desired_buffer_sdus =
        static_cast<std::uint32_t>(cfg_.max_queue_sdus > queue_.size()
                                       ? cfg_.max_queue_sdus - queue_.size()
                                       : 0);
    st.timestamp = now;
    on_status_(st);
}

void rlc_rx::on_chunk(const tb_chunk& chunk, sim::tick now)
{
    if (chunk.sn < next_expected_) {
        // Duplicate / already skipped: drop the chunk's reference.
        if (chunk.pkt) pool_.release(chunk.pkt);
        return;
    }
    pending_sdu& p = window_.get_or_create(chunk.sn);
    p.total = chunk.sdu_total;
    p.received += chunk.bytes;
    if (chunk.carries_last && chunk.pkt) {
        if (p.pkt) pool_.release(p.pkt);  // duplicate final segment
        p.pkt = chunk.pkt;
    }
    drain(now);
}

void rlc_rx::skip(pdcp_sn_t sn, sim::tick now)
{
    if (sn < next_expected_) return;
    pending_sdu& p = window_.get_or_create(sn);
    if (p.pkt) pool_.release(p.pkt);
    p = pending_sdu{};
    p.skipped = true;
    drain(now);
}

rlc_rx::context rlc_rx::export_context()
{
    context ctx;
    ctx.next_expected = next_expected_;
    // for_each visits in SN order, so the skipped list comes out sorted.
    window_.for_each([&](pdcp_sn_t sn, pending_sdu& p) {
        if (p.skipped)
            ctx.skipped.push_back(sn);
        else if (p.pkt)
            pool_.release(p.pkt);  // partial state is flushed at handover
    });
    window_.clear();
    um_gap_deadline_ = -1;
    return ctx;
}

void rlc_rx::restore(const context& ctx)
{
    next_expected_ = ctx.next_expected;
    window_.advance_to(next_expected_);
    for (const pdcp_sn_t sn : ctx.skipped) window_.get_or_create(sn).skipped = true;
    um_gap_deadline_ = -1;
}

void rlc_rx::drain(sim::tick now)
{
    // Deliver in order from next_expected_, hopping over discarded SNs. UM
    // additionally skips a blocking gap once the reassembly timer expires.
    bool advanced = false;
    for (;;) {
        pending_sdu* p = window_.find(next_expected_);
        if (p && p->skipped) {
            if (p->pkt) pool_.release(p->pkt);
            window_.erase(next_expected_);
            ++next_expected_;
            advanced = true;
            continue;
        }
        const bool blocked = !p || p->received < p->total || !p->pkt;
        if (blocked) {
            if (mode_ != rlc_mode::um || window_.empty()) break;
            if (um_gap_deadline_ < 0) {
                um_gap_deadline_ = now + k_t_reassembly;
                break;
            }
            if (now < um_gap_deadline_) break;
            // t-Reassembly expired: the hole is declared lost.
            if (p) {
                if (p->pkt) pool_.release(p->pkt);
                window_.erase(next_expected_);
            }
            ++next_expected_;
            um_gap_deadline_ = -1;
            advanced = true;
            continue;
        }
        net::packet out = pool_.take(p->pkt);
        window_.erase(next_expected_);
        ++next_expected_;
        um_gap_deadline_ = -1;
        advanced = true;
        if (on_deliver_) on_deliver_(std::move(out), now);
    }
    window_.advance_to(next_expected_);
    if (advanced && on_ack_ && mode_ == rlc_mode::am) on_ack_(next_expected_ - 1, now);
}

}  // namespace l4span::ran
