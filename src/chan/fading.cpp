#include "chan/fading.h"

#include <cmath>

namespace l4span::chan {

// Mean SNRs are calibrated so the 51-PRB / DDDSU cell delivers the paper's
// ~40 Mbit/s aggregate downlink capacity on a static channel (MCS ~15).
channel_profile channel_profile::static_channel(double mean_snr_db)
{
    return {"static", mean_snr_db, 0.8, sim::from_ms(500)};
}

channel_profile channel_profile::pedestrian(double mean_snr_db)
{
    // 3 km/h: coherence ~ 24.9 ms * 70/3.
    return {"pedestrian", mean_snr_db, 3.0, sim::from_ms(24.9 * 70.0 / 3.0)};
}

channel_profile channel_profile::vehicular(double mean_snr_db)
{
    return {"vehicular", mean_snr_db, 4.5, k_vehicular_coherence};
}

channel_profile channel_profile::mobile(double mean_snr_db)
{
    // Mixture of pedestrian and vehicular speeds: intermediate coherence,
    // wide swings.
    return {"mobile", mean_snr_db, 4.0, sim::from_ms(24.9 * 70.0 / 30.0)};
}

double fading_channel::step(sim::tick t)
{
    if (profile_.coherence <= 0 || profile_.sigma_db <= 0.0) {
        last_ = t;
        snr_db_ = profile_.mean_snr_db;
        return snr_db_;
    }
    // Ornstein-Uhlenbeck (Gauss-Markov) update with correlation
    // rho = exp(-dt / coherence). The channel is sampled once per slot, so
    // dt is the slot period on almost every call: memoize (rho, noise_sigma)
    // per dt — identical inputs give identical doubles, so the memo changes
    // nothing observable, it only skips the exp/sqrt.
    const sim::tick dt_ticks = t - last_;
    if (dt_ticks != memo_dt_) {
        const double dt = static_cast<double>(dt_ticks);
        memo_rho_ = std::exp(-dt / static_cast<double>(profile_.coherence));
        memo_sigma_ = profile_.sigma_db * std::sqrt(1.0 - memo_rho_ * memo_rho_);
        memo_dt_ = dt_ticks;
    }
    // A zero noise sigma (rho rounded to 1) returns 0.0 without a draw.
    const double noise = rng_.normal(0.0, memo_sigma_);
    snr_db_ = profile_.mean_snr_db + memo_rho_ * (snr_db_ - profile_.mean_snr_db) + noise;
    last_ = t;
    return snr_db_;
}

}  // namespace l4span::chan
