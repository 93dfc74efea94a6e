// MCS tables and fading channel statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "chan/fading.h"
#include "chan/mcs.h"

using namespace l4span;
using namespace l4span::chan;

TEST(mcs, monotone_in_snr)
{
    int prev = -1;
    for (double snr = -10.0; snr <= 30.0; snr += 0.5) {
        const int m = mcs_from_snr(snr);
        EXPECT_GE(m, prev) << "MCS must be non-decreasing in SNR";
        prev = m;
    }
    EXPECT_EQ(mcs_from_snr(-10.0), -1);
    EXPECT_EQ(mcs_from_snr(30.0), k_num_mcs - 1);
}

TEST(mcs, spectral_efficiency_monotone)
{
    for (int m = 1; m < k_num_mcs; ++m)
        EXPECT_GT(spectral_efficiency(m), spectral_efficiency(m - 1));
    EXPECT_DOUBLE_EQ(spectral_efficiency(-1), 0.0);
}

TEST(mcs, tbs_scales_with_prbs)
{
    const auto one = tbs_bytes(15, 1);
    const auto ten = tbs_bytes(15, 10);
    EXPECT_NEAR(static_cast<double>(ten), 10.0 * one, 10.0);
    EXPECT_EQ(tbs_bytes(-1, 10), 0u);
    EXPECT_EQ(tbs_bytes(10, 0), 0u);
}

TEST(mcs, cell_capacity_matches_paper_calibration)
{
    // 51 PRB, MCS ~15, DDDSU TDD: the paper's 20 MHz cell delivers ~40 Mbit/s.
    const double bytes_per_slot = tbs_bytes(15, 51);
    const double dl_slots_per_sec = 2000.0 * 3.5 / 5.0;  // 3 DL + half special
    const double mbps = bytes_per_slot * dl_slots_per_sec * 8.0 / 1e6;
    EXPECT_GT(mbps, 33.0);
    EXPECT_LT(mbps, 48.0);
}

TEST(fading, static_channel_is_tight)
{
    fading_channel ch(channel_profile::static_channel(15.0), sim::rng(1));
    double lo = 1e9, hi = -1e9;
    for (int i = 0; i < 2000; ++i) {
        const double s = ch.snr_db(sim::from_ms(i));
        lo = std::min(lo, s);
        hi = std::max(hi, s);
    }
    EXPECT_GT(lo, 15.0 - 5.0);
    EXPECT_LT(hi, 15.0 + 5.0);
}

TEST(fading, mean_reversion)
{
    fading_channel ch(channel_profile::vehicular(12.0), sim::rng(2));
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) sum += ch.snr_db(sim::from_ms(i));
    EXPECT_NEAR(sum / n, 12.0, 0.5);
}

TEST(fading, vehicular_varies_faster_than_pedestrian)
{
    // Mean absolute one-step (1 ms) delta should be larger for the channel
    // with the shorter coherence time.
    auto roughness = [](channel_profile p, std::uint64_t seed) {
        fading_channel ch(std::move(p), sim::rng(seed));
        double prev = ch.snr_db(0), acc = 0.0;
        for (int i = 1; i <= 20000; ++i) {
            const double s = ch.snr_db(sim::from_ms(i));
            acc += std::abs(s - prev);
            prev = s;
        }
        return acc / 20000.0;
    };
    EXPECT_GT(roughness(channel_profile::vehicular(), 3),
              2.0 * roughness(channel_profile::pedestrian(), 3));
}

TEST(fading, time_must_not_rewind_state)
{
    fading_channel ch(channel_profile::vehicular(), sim::rng(4));
    const double a = ch.snr_db(sim::from_ms(100));
    // Same or earlier time returns the cached value without advancing.
    EXPECT_DOUBLE_EQ(ch.snr_db(sim::from_ms(100)), a);
    EXPECT_DOUBLE_EQ(ch.snr_db(sim::from_ms(50)), a);
}

TEST(fading, coherence_time_controls_autocorrelation)
{
    // Sampled at lag = coherence, autocorrelation ~ exp(-1); at lag >>
    // coherence it should be near zero.
    channel_profile p = channel_profile::vehicular(12.0);
    fading_channel ch(p, sim::rng(5));
    std::vector<double> xs;
    for (int i = 0; i < 40000; ++i) xs.push_back(ch.snr_db(i * sim::from_ms(1)));

    auto autocorr = [&](int lag_ms) {
        double m = 0;
        for (double v : xs) m += v;
        m /= static_cast<double>(xs.size());
        double num = 0, den = 0;
        for (std::size_t i = 0; i + static_cast<std::size_t>(lag_ms) < xs.size(); ++i)
            num += (xs[i] - m) * (xs[i + static_cast<std::size_t>(lag_ms)] - m);
        for (double v : xs) den += (v - m) * (v - m);
        return num / den;
    };
    EXPECT_NEAR(autocorr(25), std::exp(-1.0), 0.12);  // ~coherence (24.9 ms)
    EXPECT_LT(autocorr(250), 0.15);
}

TEST(fading, sparse_sampling_keeps_the_ou_law)
{
    // A UE the scheduler queries only now and then: one channel sampled at
    // irregular gaps of 1 to 400 slots. The exact OU transition must give
    // the stationary mean and variance, and a lag-dt autocorrelation of
    // exp(-dt / coherence), whatever the gaps. Each check allows five
    // standard errors, computed from the sample count and the correlation
    // the gap schedule itself implies.
    const channel_profile p = channel_profile::mobile(12.0);
    const double mu = p.mean_snr_db;
    const double var = p.sigma_db * p.sigma_db;
    const double coherence = static_cast<double>(p.coherence);
    fading_channel ch(p, sim::rng(43));
    sim::rng gaps(44);
    const sim::tick slot = sim::from_us(500);

    // Burn-in from the mean-valued start state, then N samples, each with
    // the gap (in slots) and the OU correlation exp(-gap / coherence) that
    // link it to the next one.
    sim::tick t = 0;
    for (int i = 0; i < 200; ++i) ch.snr_db(t += slot * gaps.uniform_int(1, 400));
    constexpr std::size_t n = 40000;
    std::vector<double> x(n);
    std::vector<std::int64_t> gap_slots(n);
    std::vector<double> rho(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = ch.snr_db(t);
        gap_slots[i] = gaps.uniform_int(1, 400);
        rho[i] = std::exp(-static_cast<double>(slot * gap_slots[i]) / coherence);
        t += slot * gap_slots[i];
    }

    // Correlation between samples k apart is E[rho]^k (and E[rho^2]^k for
    // the squared deviations), which inflates the i.i.d. standard errors
    // by (1 + r) / (1 - r).
    double r1 = 0.0, r2 = 0.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
        r1 += rho[i];
        r2 += rho[i] * rho[i];
    }
    r1 /= n - 1;
    r2 /= n - 1;
    const double z = 5.0;

    double mean = 0.0;
    for (const double v : x) mean += v;
    mean /= n;
    EXPECT_NEAR(mean, mu, z * std::sqrt(var / n * (1 + r1) / (1 - r1)));

    double m2 = 0.0;
    for (const double v : x) m2 += (v - mu) * (v - mu);
    m2 /= n;
    EXPECT_NEAR(m2, var, z * var * std::sqrt(2.0 / n * (1 + r2) / (1 - r2)));

    // Lag autocorrelation, pooled over gap bands of 100 slots: the mean
    // normalized product of consecutive deviations must match the band's
    // mean rho. Var[(x - mu)(y - mu)] / var^2 = 1 + rho^2 <= 2.
    for (int band = 0; band < 4; ++band) {
        double prod = 0.0, want = 0.0;
        int pairs = 0;
        for (std::size_t i = 0; i + 1 < n; ++i) {
            if ((gap_slots[i] - 1) / 100 != band) continue;
            prod += (x[i] - mu) * (x[i + 1] - mu) / var;
            want += rho[i];
            ++pairs;
        }
        ASSERT_GT(pairs, static_cast<int>(n / 5)) << "band " << band;
        EXPECT_NEAR(prod / pairs, want / pairs, z * std::sqrt(2.0 / pairs))
            << "band " << band;
    }
}

// --- bit-exactness against reference implementations -----------------------

namespace {

// The linear scan mcs_from_snr replaced: highest MCS whose threshold is met,
// stopping at the first one that is not.
int reference_mcs(double snr_db)
{
    int best = -1;
    for (int m = 0; m < k_num_mcs; ++m) {
        if (snr_db >= min_snr_db(m))
            best = m;
        else
            break;
    }
    return best;
}

std::uint64_t bits_of(double v)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

// The Gauss-Markov step with one sim::rng::normal draw per advance — the
// fading model as specified, recomputing rho and the noise sigma each step
// instead of memoizing them per dt.
struct reference_fading {
    channel_profile p;
    sim::rng rng;
    double snr;
    sim::tick last = 0;

    reference_fading(channel_profile prof, std::uint64_t seed)
        : p(std::move(prof)), rng(seed), snr(p.mean_snr_db)
    {
    }

    double at(sim::tick t)
    {
        if (t <= last) return snr;
        if (p.coherence <= 0 || p.sigma_db <= 0.0) {
            last = t;
            snr = p.mean_snr_db;
            return snr;
        }
        const double dt = static_cast<double>(t - last);
        const double rho = std::exp(-dt / static_cast<double>(p.coherence));
        const double noise_sigma = p.sigma_db * std::sqrt(1.0 - rho * rho);
        snr = p.mean_snr_db + rho * (snr - p.mean_snr_db) + rng.normal(0.0, noise_sigma);
        last = t;
        return snr;
    }
};

// Drives a fading_channel and the reference through the same irregular
// schedule: slot-period steps, odd dt values, and repeated or earlier
// times that must not advance the process.
void expect_fading_matches_reference(const channel_profile& prof, std::uint64_t seed,
                                     int steps)
{
    fading_channel ch(prof, sim::rng(seed));
    reference_fading ref(prof, seed);
    sim::rng schedule(seed ^ 0x5eedull);
    const sim::tick dts[] = {sim::from_us(500), sim::from_us(500), sim::from_us(500),
                             sim::from_ms(1),   sim::from_us(123), 1,
                             sim::from_ms(40),  sim::from_sec(2)};
    sim::tick t = 0;
    for (int i = 0; i < steps; ++i) {
        const auto pick = static_cast<std::size_t>(schedule.uniform_int(0, 9));
        sim::tick when = t;  // pick 8: repeated query at the current tick
        if (pick < 8)
            when = t += dts[pick];
        else if (pick == 9 && t > 0)
            when = t - 1;  // earlier than the last step
        const double got = ch.snr_db(when);
        const double want = ref.at(when);
        ASSERT_EQ(bits_of(got), bits_of(want)) << "step " << i << " t=" << when;
        ASSERT_EQ(ch.mcs(when), mcs_from_snr(want));
    }
}

}  // namespace

TEST(mcs, count_of_met_thresholds_equals_reference_scan)
{
    std::vector<double> probes = {0.0,
                                  -0.0,
                                  std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::max(),
                                  std::numeric_limits<double>::lowest(),
                                  std::numeric_limits<double>::denorm_min()};
    for (int m = -1; m < k_num_mcs; ++m) {
        const double th = min_snr_db(m);
        probes.push_back(th);
        probes.push_back(std::nextafter(th, -std::numeric_limits<double>::infinity()));
        probes.push_back(std::nextafter(th, std::numeric_limits<double>::infinity()));
    }
    for (double snr = -12.0; snr <= 30.0; snr += 0.01) probes.push_back(snr);
    for (const double snr : probes) EXPECT_EQ(mcs_from_snr(snr), reference_mcs(snr)) << snr;

    // Every threshold selects its own MCS, and one ulp below selects the one under.
    for (int m = 0; m < k_num_mcs; ++m) {
        const double th = min_snr_db(m);
        EXPECT_EQ(mcs_from_snr(th), m);
        EXPECT_EQ(mcs_from_snr(std::nextafter(th, -1e9)), m - 1);
    }
    EXPECT_EQ(mcs_from_snr(std::numeric_limits<double>::quiet_NaN()), -1);
    EXPECT_EQ(mcs_from_snr(std::numeric_limits<double>::infinity()), k_num_mcs - 1);
    EXPECT_EQ(mcs_from_snr(-std::numeric_limits<double>::infinity()), -1);
}

TEST(fading, memoized_step_matches_reference_model)
{
    // Every named profile, over 12k irregular steps each (dt changes
    // re-memoize rho and the noise sigma many times).
    for (const auto& prof :
         {channel_profile::static_channel(), channel_profile::pedestrian(),
          channel_profile::vehicular(), channel_profile::mobile()})
        expect_fading_matches_reference(prof, 1234, 12000);
}

TEST(fading, zero_sigma_and_unit_rho_draw_nothing)
{
    // sigma = 0: the process is pinned to its mean and never draws.
    channel_profile flat{"flat", 11.0, 0.0, sim::from_ms(30)};
    expect_fading_matches_reference(flat, 7, 2000);

    // A coherence so long that a 1 ns step rounds rho to exactly 1 (noise
    // sigma 0, no draw) while longer steps still draw: the draws must stay
    // aligned with the reference across both kinds.
    channel_profile glacial{"glacial", 12.0, 3.0, sim::tick{4'000'000'000'000'000'000}};
    expect_fading_matches_reference(glacial, 8, 12000);
}
