// Fig. 17 — RLC queue length CDFs under L4Span for Prague and CUBIC in 16-
// and 64-UE cells, static and mobile channels. The paper's point: the
// classic queue never drains to zero (no under-utilization) while the L4S
// queue stays low.
//
// A wrapper over the "fig17" builtin sweep, like bench_fig09_tcp_grid.cpp.
#include "scenario/grid_runner.h"
#include "scenario/scenario_run.h"

using namespace l4span;

int main(int argc, char** argv)
{
    const auto args = scenario::parse_bench_args(argc, argv);
    const auto spec = scenario::builtin_scenario("fig17", args.quick);
    if (!args.export_scenario.empty())
        return scenario::write_scenario_file(args.export_scenario, spec);
    return scenario::run_scenario(spec, args);
}
