#include "core/profile_table.h"

namespace l4span::core {

void profile_table::grow()
{
    const std::size_t old_cap = bytes_.size();
    const std::size_t cap = old_cap == 0 ? 64 : old_cap * 2;
    std::vector<ran::pdcp_sn_t> sn(cap);
    std::vector<std::uint32_t> bytes(cap);
    std::vector<sim::tick> t_in(cap), t_tx(cap), t_dl(cap);
    std::vector<std::uint8_t> disc(cap);
    for (std::size_t i = 0; i < count_; ++i) {
        const std::size_t p = phys(i);
        sn[i] = sn_[p];
        bytes[i] = bytes_[p];
        t_in[i] = t_ingress_[p];
        t_tx[i] = t_transmitted_[p];
        t_dl[i] = t_delivered_[p];
        disc[i] = discarded_[p];
    }
    sn_ = std::move(sn);
    bytes_ = std::move(bytes);
    t_ingress_ = std::move(t_in);
    t_transmitted_ = std::move(t_tx);
    t_delivered_ = std::move(t_dl);
    discarded_ = std::move(disc);
    head_ = 0;
    mask_ = cap - 1;
}

void profile_table::on_ingress(ran::pdcp_sn_t sn, std::uint32_t bytes, sim::tick now)
{
    if (!has_entries_) {
        first_sn_ = sn;
        has_entries_ = true;
    }
    if (count_ == bytes_.size()) grow();
    const std::size_t p = phys(count_);
    sn_[p] = sn;
    bytes_[p] = bytes;
    t_ingress_[p] = now;
    t_transmitted_[p] = -1;
    t_delivered_[p] = -1;
    discarded_[p] = 0;
    ++count_;
    standing_bytes_ += bytes;
    standing_packets_ += 1;
}

void profile_table::on_transmitted(ran::pdcp_sn_t highest_sn, sim::tick ts,
                                   const std::function<void(ran::pdcp_sn_t, std::uint32_t)>& txed)
{
    if (!has_entries_) return;
    while (tx_cursor_ < count_ && sn_[phys(tx_cursor_)] <= highest_sn) {
        const std::size_t p = phys(tx_cursor_);
        if (!discarded_[p]) {
            t_transmitted_[p] = ts;
            standing_bytes_ -= bytes_[p];
            standing_packets_ -= 1;
            if (txed) txed(sn_[p], bytes_[p]);
        }
        ++tx_cursor_;
    }
}

void profile_table::on_delivered(ran::pdcp_sn_t highest_sn, sim::tick ts)
{
    if (!has_entries_) return;
    while (dl_cursor_ < count_ && sn_[phys(dl_cursor_)] <= highest_sn) {
        const std::size_t p = phys(dl_cursor_);
        if (t_delivered_[p] < 0 && !discarded_[p]) t_delivered_[p] = ts;
        ++dl_cursor_;
    }
}

void profile_table::on_discard(ran::pdcp_sn_t sn)
{
    if (!has_entries_ || sn < first_sn_) return;
    const std::size_t idx = sn - first_sn_;
    if (idx >= count_) return;
    const std::size_t p = phys(idx);
    if (discarded_[p]) return;
    if (t_transmitted_[p] < 0) {
        standing_bytes_ -= bytes_[p];
        standing_packets_ -= 1;
    }
    discarded_[p] = 1;
}

sim::tick profile_table::head_age(sim::tick now) const
{
    for (std::size_t i = tx_cursor_; i < count_; ++i) {
        const std::size_t p = phys(i);
        if (!discarded_[p]) return now - t_ingress_[p];
    }
    return 0;
}

std::optional<profile_entry> profile_table::find(ran::pdcp_sn_t sn) const
{
    if (!has_entries_ || sn < first_sn_) return std::nullopt;
    const std::size_t idx = sn - first_sn_;
    if (idx >= count_) return std::nullopt;
    const std::size_t p = phys(idx);
    profile_entry e;
    e.sn = sn;
    e.bytes = bytes_[p];
    e.t_ingress = t_ingress_[p];
    e.t_transmitted = t_transmitted_[p];
    e.t_delivered = t_delivered_[p];
    e.discarded = discarded_[p] != 0;
    return e;
}

void profile_table::prune(sim::tick now, sim::tick horizon)
{
    while (count_ > 0 && tx_cursor_ > 0) {
        const bool settled = discarded_[head_] || t_transmitted_[head_] >= 0;
        if (!settled) break;
        const sim::tick ref =
            t_delivered_[head_] >= 0 ? t_delivered_[head_] : t_transmitted_[head_];
        if (ref >= 0 && now - ref < horizon) break;
        head_ = (head_ + 1) & mask_;
        --count_;
        ++first_sn_;
        --tx_cursor_;
        if (dl_cursor_ > 0) --dl_cursor_;
    }
}

}  // namespace l4span::core
