// BBR v1 and v2 (Cardwell et al.), model-based controllers.
//
// v1 probes bandwidth/RTT and largely ignores loss and ECN (appendix B of
// the paper). v2 adds inflight bounds and a DCTCP-like response to AccECN
// CE feedback, which is why the paper groups it with L4S senders.
#pragma once

#include <algorithm>
#include <deque>

#include "transport/cc.h"

namespace l4span::transport {

// BBR's windowed-max bandwidth filter: the max over the (positive) samples
// of the last `window_rounds` rounds, 0 when empty. Expiry is lazy — applied when a
// sample is pushed — so max() may still report a sample from an older round
// until the next push. A monotone deque keeps it O(1) amortized: values
// strictly decrease front to back, since a sample that a later, larger one
// dominates can never be the max again (it expires no later).
class windowed_max_filter {
public:
    explicit windowed_max_filter(std::uint64_t window_rounds) : window_(window_rounds) {}

    // `round` must be non-decreasing across calls.
    void push(std::uint64_t round, double value)
    {
        while (!samples_.empty() && samples_.back().second <= value) samples_.pop_back();
        samples_.emplace_back(round, value);
        while (samples_.front().first + window_ < round) samples_.pop_front();
    }

    double max() const { return samples_.empty() ? 0.0 : samples_.front().second; }

private:
    std::uint64_t window_;
    std::deque<std::pair<std::uint64_t, double>> samples_;  // (round, value)
};

class bbr : public congestion_controller {
public:
    explicit bbr(std::uint32_t mss, bool v2) : mss_(mss), v2_(v2), cwnd_(10ull * mss) {}

    void on_ack(const ack_sample& s) override;
    void on_loss(sim::tick now) override;
    void on_ecn(sim::tick now) override;
    void on_rto(sim::tick now) override;

    std::uint64_t cwnd() const override;
    double pacing_bps() const override;

    net::ecn data_ecn() const override { return v2_ ? net::ecn::ect1 : net::ecn::ect0; }
    bool uses_accecn() const override { return v2_; }
    std::string name() const override { return v2_ ? "bbr2" : "bbr"; }

    double bandwidth_bps() const { return max_bw_bps(); }
    sim::tick min_rtt() const { return min_rtt_; }

private:
    enum class mode { startup, drain, probe_bw, probe_rtt };

    double max_bw_bps() const { return bw_filter_.max(); }
    std::uint64_t bdp_bytes(double gain) const;
    void advance_cycle(sim::tick now);

    std::uint32_t mss_;
    bool v2_;
    std::uint64_t cwnd_;

    mode mode_ = mode::startup;
    double pacing_gain_ = 2.885;
    double cwnd_gain_ = 2.885;

    // Windowed-max bandwidth filter (per-"round" max over ~10 rounds).
    static constexpr std::uint64_t k_bw_window_rounds = 10;
    windowed_max_filter bw_filter_{k_bw_window_rounds};
    std::uint64_t round_ = 0;
    sim::tick round_start_ = 0;

    sim::tick min_rtt_ = -1;
    sim::tick min_rtt_stamp_ = 0;
    sim::tick probe_rtt_done_ = 0;

    double full_bw_ = 0.0;
    int full_bw_count_ = 0;

    int cycle_index_ = 0;
    sim::tick cycle_stamp_ = 0;

    // v2 inflight bound and ECN accounting.
    std::uint64_t inflight_hi_ = ~0ull;
    std::uint64_t ce_bytes_rtt_ = 0;
    std::uint64_t acked_bytes_rtt_ = 0;
    sim::tick last_ecn_round_ = 0;
};

}  // namespace l4span::transport
