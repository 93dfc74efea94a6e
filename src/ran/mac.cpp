#include "ran/mac.h"

#include <algorithm>

namespace l4span::ran {

void prb_allocator::allocate(const std::vector<sched_input>& in, int available_prb,
                             std::vector<int>& grants)
{
    grants.assign(in.size(), 0);
    if (in.empty() || available_prb <= 0) return;

    if (cfg_.policy == sched_policy::round_robin) {
        // Equal split among backlogged UEs; the remainder rotates so no UE is
        // systematically favoured. Only the remainder's PRBs are placed one
        // by one, so a slot with hundreds of backlogged UEs costs one fill.
        const std::size_t n = in.size();
        const int base = available_prb / static_cast<int>(n);
        const std::size_t extra = static_cast<std::size_t>(available_prb) % n;
        std::fill(grants.begin(), grants.end(), base);
        for (std::size_t k = 0; k < extra; ++k) ++grants[(rr_cursor_ + k) % n];
        rr_cursor_ = (rr_cursor_ + 1) % n;
        return;
    }

    // Proportional fair: hand out one RBG at a time to the UE with the best
    // instantaneous-to-average rate ratio, capping at its backlog.
    const int rbg = std::max(1, cfg_.rbg_size);
    int remaining = available_prb;
    std::vector<std::uint64_t>& planned_bytes = planned_scratch_;
    planned_bytes.assign(in.size(), 0);
    while (remaining > 0) {
        double best_metric = -1.0;
        int best = -1;
        for (std::size_t i = 0; i < in.size(); ++i) {
            if (planned_bytes[i] >= in[i].backlog_bytes) continue;  // enough granted
            const double avg = std::max(1.0, avg_rate_[in[i].ue_index]);
            const double metric = in[i].bytes_per_prb / avg;
            if (metric > best_metric) {
                best_metric = metric;
                best = static_cast<int>(i);
            }
        }
        if (best < 0) break;
        const int give = std::min(remaining, rbg);
        grants[static_cast<std::size_t>(best)] += give;
        planned_bytes[static_cast<std::size_t>(best)] +=
            static_cast<std::uint64_t>(in[static_cast<std::size_t>(best)].bytes_per_prb *
                                       give);
        remaining -= give;
    }
}

}  // namespace l4span::ran
