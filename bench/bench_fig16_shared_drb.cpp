// Fig. 16 — One DRB shared by an L4S (Prague) and a classic (CUBIC) flow:
// the four marking strategies of §6.2.6. The y-axis metric is the L4S
// flow's share: r_l4s/(r_l4s+r_classic) and RTT_l4s/(RTT_l4s+RTT_classic);
// 50% on both axes is the fair outcome.
//
// A wrapper over the "fig16" builtin sweep, like bench_fig09_tcp_grid.cpp.
#include "scenario/grid_runner.h"
#include "scenario/scenario_run.h"

using namespace l4span;

int main(int argc, char** argv)
{
    const auto args = scenario::parse_bench_args(argc, argv);
    const auto spec = scenario::builtin_scenario("fig16", args.quick);
    if (!args.export_scenario.empty())
        return scenario::write_scenario_file(args.export_scenario, spec);
    return scenario::run_scenario(spec, args);
}
