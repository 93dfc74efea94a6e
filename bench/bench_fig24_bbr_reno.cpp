// Fig. 24 (appendix B) — BBR (v1) and Reno under the Fig. 9 grid. Reno's
// RTT drops >97% under L4Span; BBR largely ignores ECN, so medians barely
// move while variance grows.
//
// A wrapper over the "fig24" builtin sweep, like bench_fig09_tcp_grid.cpp.
#include "scenario/grid_runner.h"
#include "scenario/scenario_run.h"

using namespace l4span;

int main(int argc, char** argv)
{
    const auto args = scenario::parse_bench_args(argc, argv);
    const auto spec = scenario::builtin_scenario("fig24", args.quick);
    if (!args.export_scenario.empty())
        return scenario::write_scenario_file(args.export_scenario, spec);
    return scenario::run_scenario(spec, args);
}
