// Seeded random source. Every stochastic component owns one, derived from a
// scenario master seed, so experiments are reproducible.
//
// Bit-identity contract: every draw returns exactly the bits that
// std::mt19937_64 with a fresh std::*_distribution per call returns under
// libstdc++ (the definition every committed result was produced with), so
// the simulator's streams are fixed by this file, not by the toolchain.
// tests/test_sim.cpp checks each API against the standard library and pins
// a digest of an interleaved program.
//
// Why in-house: the fading channel draws one normal per UE per DL slot, and
// the standard library's draws cost more than the arithmetic they feed.
// std::mt19937_64's twist selects its matrix term with a data-dependent
// branch that mispredicts half the time, and generate_canonical converts
// the word through a branchy uint64 -> double sequence. mt64 computes the
// same twist branch-free, and the draws below inline libstdc++'s formulas
// on top of a branch-free conversion. uniform_int keeps
// std::uniform_int_distribution (its algorithm is toolchain-specific).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>

namespace l4span::sim {

// MT19937-64 with std::mt19937_64's seeding, twist and tempering: the same
// word sequence for every seed. A UniformRandomBitGenerator.
class mt64 {
public:
    using result_type = std::uint64_t;

    explicit mt64(result_type seed)
    {
        x_[0] = seed;
        for (std::size_t i = 1; i < n; ++i)
            x_[i] = 6364136223846793005ull * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    result_type operator()()
    {
        if (next_ == n) twist();
        result_type z = x_[next_++];
        z ^= (z >> 29) & 0x5555555555555555ull;
        z ^= (z << 17) & 0x71d67fffeda60000ull;
        z ^= (z << 37) & 0xfff7eee000000000ull;
        return z ^ (z >> 43);
    }

private:
    static constexpr std::size_t n = 312;
    static constexpr std::size_t m = 156;

    // Regenerates all n words (rng.cpp).
    void twist();

    result_type x_[n];
    std::size_t next_ = n;
};

class rng {
public:
    explicit rng(std::uint64_t seed = 1) : engine_(seed) {}

    // Uniform in [0, 1). (uniform(0.0, 1.0) adds nothing to canonical():
    // c * 1.0 + 0.0 == c for every c in [0, 1).)
    double uniform() { return canonical(); }

    double uniform(double lo, double hi) { return canonical() * (hi - lo) + lo; }

    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi)
    {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
    }

    // The polar method, as std::normal_distribution runs it; a fresh
    // distribution per call discards the pair's second value.
    double normal(double mean, double stddev)
    {
        if (stddev <= 0.0) return mean;
        for (;;) {
            const double x = 2.0 * canonical() - 1.0;
            const double y = 2.0 * canonical() - 1.0;
            const double r2 = x * x + y * y;
            if (r2 <= 1.0 && r2 != 0.0)
                return y * std::sqrt(-2.0 * std::log(r2) / r2) * stddev + mean;
        }
    }

    double exponential(double mean)
    {
        if (mean <= 0.0) return 0.0;
        return -std::log(1.0 - canonical()) / (1.0 / mean);
    }

    bool bernoulli(double p)
    {
        if (p <= 0.0) return false;
        if (p >= 1.0) return true;
        return uniform() < p;
    }

    // Derives an independent child stream (for per-UE / per-flow components).
    rng fork() { return rng(engine_() ^ 0x9e3779b97f4a7c15ull); }

    mt64& engine() { return engine_; }

private:
    // std::generate_canonical<double, 53>: one word, rounded to nearest
    // and scaled by 2^-64, with a result that rounds up to 1 replaced by
    // the largest double below it. Both halves convert exactly, so the one
    // rounding is in the add.
    double canonical()
    {
        const std::uint64_t v = engine_();
        const auto hi = static_cast<std::uint32_t>(v >> 32);
        const auto lo = static_cast<std::uint32_t>(v);
        const double d = static_cast<double>(hi) * 0x1p32 + static_cast<double>(lo);
        const double r = d * 0x1p-64;
        return r < 1.0 ? r : 0x1.fffffffffffffp-1;
    }

    mt64 engine_;
};

}  // namespace l4span::sim
