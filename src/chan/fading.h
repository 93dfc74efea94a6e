// Per-UE wireless channel: a Gauss-Markov shadowed SNR process whose
// correlation time equals the channel coherence time. Implements
// chan::link_model (the channel_profile knobs live in link_model.h).
#pragma once

#include "chan/link_model.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace l4span::chan {

class fading_channel final : public link_model {
public:
    fading_channel(channel_profile profile, sim::rng rng)
        : profile_(std::move(profile)), snr_db_(profile_.mean_snr_db), rng_(std::move(rng))
    {
    }

    // SNR at time `t`; advances the process (t must be non-decreasing).
    double snr_db(sim::tick t) override
    {
        if (t <= last_) return snr_db_;
        return step(t);
    }

    // Same answer as link_model::mcs; called through the final class (the
    // gNB slot loop does) it binds statically and inlines the fast path.
    int mcs(sim::tick t) override { return mcs_from_snr(snr_db(t)); }

    const channel_profile& profile() const override { return profile_; }

private:
    double step(sim::tick t);

    // Per-step state first, the engine's 2.5 KB state last, so a step
    // touches few cache lines besides the engine word it draws.
    channel_profile profile_;
    double snr_db_;
    sim::tick last_ = 0;
    // Memoized OU step coefficients for the last-seen dt (the slot period
    // in steady state, so the exp/sqrt run once, not once per sample).
    sim::tick memo_dt_ = -1;
    double memo_rho_ = 0.0;
    double memo_sigma_ = 0.0;
    sim::rng rng_;
};

}  // namespace l4span::chan
