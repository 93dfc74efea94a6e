#include "transport/bbr.h"

namespace l4span::transport {

namespace {
constexpr double k_startup_gain = 2.885;
constexpr double k_drain_gain = 1.0 / 2.885;
constexpr double k_cycle_gains[] = {1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
constexpr int k_cycle_len = 8;
constexpr sim::tick k_min_rtt_expiry = sim::from_sec(10);
constexpr sim::tick k_probe_rtt_duration = sim::from_ms(200);
constexpr double k_ecn_beta = 0.3;       // v2 inflight_hi reduction factor
constexpr double k_ecn_threshold = 0.05; // CE fraction that triggers a response
}  // namespace

std::uint64_t bbr::bdp_bytes(double gain) const
{
    const double bw = max_bw_bps();
    if (bw <= 0.0 || min_rtt_ <= 0) return 10ull * mss_;
    return static_cast<std::uint64_t>(gain * bw / 8.0 * sim::to_sec(min_rtt_));
}

void bbr::advance_cycle(sim::tick now)
{
    if (min_rtt_ <= 0) return;
    if (now - cycle_stamp_ < min_rtt_) return;
    cycle_stamp_ = now;
    cycle_index_ = (cycle_index_ + 1) % k_cycle_len;
    pacing_gain_ = k_cycle_gains[cycle_index_];
}

void bbr::on_ack(const ack_sample& s)
{
    const sim::tick now = s.now;

    // Round accounting (~one RTT per round).
    const sim::tick rtt_ref = s.srtt > 0 ? s.srtt : sim::from_ms(25);
    if (now - round_start_ >= rtt_ref) {
        round_start_ = now;
        ++round_;
        // v2: fold per-round CE fraction into the inflight bound.
        if (v2_ && acked_bytes_rtt_ > 0) {
            const double frac = static_cast<double>(ce_bytes_rtt_) /
                                static_cast<double>(acked_bytes_rtt_);
            if (frac > k_ecn_threshold) {
                const std::uint64_t target = std::max<std::uint64_t>(
                    static_cast<std::uint64_t>(
                        static_cast<double>(std::min(inflight_hi_, cwnd_)) *
                        (1.0 - k_ecn_beta * frac)),
                    4ull * mss_);
                inflight_hi_ = target;
                last_ecn_round_ = now;
            } else if (now - last_ecn_round_ > 4 * rtt_ref && inflight_hi_ != ~0ull) {
                // Probe the bound back up when congestion subsides.
                inflight_hi_ += mss_;
            }
        }
        acked_bytes_rtt_ = 0;
        ce_bytes_rtt_ = 0;
    }
    acked_bytes_rtt_ += s.newly_acked;
    ce_bytes_rtt_ += static_cast<std::uint64_t>(s.ce_fraction * s.newly_acked);

    // Bandwidth filter.
    if (s.delivery_rate_bps > 0.0 && !s.app_limited)
        bw_filter_.push(round_, s.delivery_rate_bps);

    // Min-RTT filter.
    if (s.rtt > 0 && (min_rtt_ < 0 || s.rtt < min_rtt_ ||
                      now - min_rtt_stamp_ > k_min_rtt_expiry)) {
        min_rtt_ = s.rtt;
        min_rtt_stamp_ = now;
    }

    switch (mode_) {
    case mode::startup: {
        const double bw = max_bw_bps();
        if (bw > full_bw_ * 1.25) {
            full_bw_ = bw;
            full_bw_count_ = 0;
        } else if (++full_bw_count_ >= 3) {
            mode_ = mode::drain;
            pacing_gain_ = k_drain_gain;
            cwnd_gain_ = 2.0;
        }
        cwnd_ += s.newly_acked;
        break;
    }
    case mode::drain:
        if (s.in_flight <= bdp_bytes(1.0)) {
            mode_ = mode::probe_bw;
            cycle_index_ = 2;  // start in a neutral phase
            pacing_gain_ = 1.0;
            cycle_stamp_ = now;
        }
        break;
    case mode::probe_bw:
        advance_cycle(now);
        if (now - min_rtt_stamp_ > k_min_rtt_expiry) {
            mode_ = mode::probe_rtt;
            probe_rtt_done_ = now + k_probe_rtt_duration;
        }
        break;
    case mode::probe_rtt:
        if (now >= probe_rtt_done_) {
            min_rtt_stamp_ = now;
            mode_ = mode::probe_bw;
            pacing_gain_ = 1.0;
            cycle_stamp_ = now;
        }
        break;
    }

    if (mode_ != mode::startup) {
        cwnd_ = bdp_bytes(cwnd_gain_);
        cwnd_ = std::max<std::uint64_t>(cwnd_, 4ull * mss_);
    }
}

std::uint64_t bbr::cwnd() const
{
    std::uint64_t w = cwnd_;
    if (mode_ == mode::probe_rtt) w = 4ull * mss_;
    if (v2_) w = std::min(w, inflight_hi_);
    return std::max<std::uint64_t>(w, 2ull * mss_);
}

double bbr::pacing_bps() const
{
    const double bw = max_bw_bps();
    if (bw <= 0.0) return 0.0;
    return pacing_gain_ * bw;
}

void bbr::on_loss(sim::tick)
{
    if (!v2_) return;  // v1 shrugs off loss
    inflight_hi_ = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(static_cast<double>(std::min(inflight_hi_, cwnd_)) *
                                   (1.0 - k_ecn_beta)),
        4ull * mss_);
}

void bbr::on_ecn(sim::tick)
{
    // v1 ignores ECN entirely; v2 responds via the per-round CE accounting
    // in on_ack (AccECN path), so nothing extra here.
}

void bbr::on_rto(sim::tick)
{
    cwnd_ = 4ull * mss_;
    full_bw_ = 0.0;
    full_bw_count_ = 0;
    if (v2_) inflight_hi_ = ~0ull;
    mode_ = mode::startup;
    pacing_gain_ = k_startup_gain;
    cwnd_gain_ = k_startup_gain;
}

}  // namespace l4span::transport
