#include "sim/rng.h"

namespace l4span::sim {

void mt64::twist()
{
    // y's low bit selects the matrix term; a mask instead of a branch, since
    // the bit is random and a branch on it mispredicts half the time.
    constexpr std::uint64_t upper = ~std::uint64_t{0} << 31;
    constexpr std::uint64_t matrix = 0xb5026f5aa96619e9ull;
    const auto mix = [](std::uint64_t hi, std::uint64_t lo, std::uint64_t far) {
        const std::uint64_t y = (hi & upper) | (lo & ~upper);
        return far ^ (y >> 1) ^ ((0 - (y & 1)) & matrix);
    };
    std::size_t k = 0;
    for (; k < n - m; ++k) x_[k] = mix(x_[k], x_[k + 1], x_[k + m]);
    for (; k < n - 1; ++k) x_[k] = mix(x_[k], x_[k + 1], x_[k + m - n]);
    x_[n - 1] = mix(x_[n - 1], x_[0], x_[m - 1]);
    next_ = 0;
}

}  // namespace l4span::sim
