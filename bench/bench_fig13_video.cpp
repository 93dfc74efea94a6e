// Fig. 13 — Interactive-video congestion control (SCReAM and UDP Prague)
// over 8 concurrent UEs under static / pedestrian / vehicular channels,
// with and without L4Span. These UDP flows use the downlink-marking
// fallback (no short-circuiting), as in the paper.
//
// A wrapper over the "fig13" builtin sweep, like bench_fig09_tcp_grid.cpp.
#include "scenario/grid_runner.h"
#include "scenario/scenario_run.h"

using namespace l4span;

int main(int argc, char** argv)
{
    const auto args = scenario::parse_bench_args(argc, argv);
    const auto spec = scenario::builtin_scenario("fig13", args.quick);
    if (!args.export_scenario.empty())
        return scenario::write_scenario_file(args.export_scenario, spec);
    return scenario::run_scenario(spec, args);
}
