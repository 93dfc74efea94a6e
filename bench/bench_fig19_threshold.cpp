// Fig. 19 — Impact of the sojourn-time threshold tau_s on Prague's RTT and
// the cell rate sum, across UE counts. The paper picks 10 ms: the MAC
// scheduler needs an adequately filled buffer, so tighter thresholds cost
// throughput while looser ones only add delay.
//
// A wrapper over the "fig19" builtin sweep, like bench_fig09_tcp_grid.cpp.
#include "scenario/grid_runner.h"
#include "scenario/scenario_run.h"

using namespace l4span;

int main(int argc, char** argv)
{
    const auto args = scenario::parse_bench_args(argc, argv);
    const auto spec = scenario::builtin_scenario("fig19", args.quick);
    if (!args.export_scenario.empty())
        return scenario::write_scenario_file(args.export_scenario, spec);
    return scenario::run_scenario(spec, args);
}
