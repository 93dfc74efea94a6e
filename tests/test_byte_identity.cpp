// Byte-identity regression harness for the hot-path memory-layout work.
//
// Every layout optimization (packet arena, SN rings, flat tables, SoA
// profile table, timing-wheel event queue) argues it cannot change
// simulation output; this suite pins that argument down executably. A
// fig09-style congested-cell grid is rendered to its full formatted table
// serially and through the thread pool, and the two strings must match
// byte for byte — any change to RNG draw order, floating-point association
// or iteration order shows up as a diff here before it reaches CI's
// bench-level diffs. (The fault-chaos slice has the same guarantee in
// test_fault_chaos.chaos_run_is_byte_identical_for_any_worker_count.)
//
// The golden_digest suite goes one step further: it pins FNV-1a digests of
// the simulated outputs of ten paths through the DL slot loop, the event
// queue and the random draws (a 2-cell handover topology, a
// proportional-fair cell, a trace-replay cell with binding PRB caps, a
// mixed-transport cell whose pushes are dominated by RTO/PTO re-arms, the
// fig09 grid above, the --quick ecn_impairment slice, the committed
// fault_chaos_quick scenario, the --quick quic_interactive points, the
// WRED example cell and a 64-UE round-robin cell in the rotation regime).
// A hot-path rework that claims bit-identical output must reproduce these
// constants unchanged; only a deliberate model change may re-pin them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "chan/trace_channel.h"
#include "scenario/cell_scenario.h"
#include "scenario/grid_runner.h"
#include "scenario/scenario_run.h"
#include "scenario/scenario_spec.h"
#include "scenario/topology.h"
#include "stats/json.h"
#include "stats/sample_set.h"
#include "stats/table.h"
#include "topo/mobility_model.h"

using namespace l4span;

namespace {

struct grid_point {
    const char* cca;
    bool l4span_on;
};

// One small fig09-quick-shaped point: a congested static-channel cell with
// `ues` long-lived downloads, pooled OWD + per-UE goodput.
std::string run_point(const grid_point& gp)
{
    scenario::cell_spec cell;
    cell.num_ues = 4;
    cell.channel = "static";
    cell.rlc_queue_sdus = 16384;
    cell.cu = gp.l4span_on ? scenario::cu_mode::l4span : scenario::cu_mode::none;
    cell.seed = 41;
    scenario::cell_scenario s(cell);
    std::vector<int> handles;
    for (int u = 0; u < cell.num_ues; ++u) {
        scenario::flow_spec f;
        f.cca = gp.cca;
        f.ue = u;
        handles.push_back(s.add_flow(f));
    }
    s.run(sim::from_sec(1.5));

    stats::sample_set owd;
    char buf[64];
    std::string row(gp.cca);
    row += gp.l4span_on ? "/l4span" : "/baseline";
    for (int h : handles) {
        for (double v : s.owd_ms(h).raw()) owd.add(v);
        std::snprintf(buf, sizeof buf, " tput=%.6f", s.goodput_mbps(h));
        row += buf;
    }
    std::snprintf(buf, sizeof buf, " owd_p50=%.6f owd_p90=%.6f n=%zu",
                  owd.percentile(50), owd.percentile(90), owd.count());
    row += buf;
    return row;
}

// Renders the whole grid through a pool of `jobs` workers.
std::string run_grid(int jobs)
{
    const std::vector<grid_point> grid = {
        {"prague", false}, {"prague", true}, {"cubic", false}, {"cubic", true}};
    scenario::grid_runner pool(jobs);
    const auto rows =
        pool.map(grid.size(), [&](std::size_t i) { return run_point(grid[i]); });
    std::string out;
    for (const auto& r : rows) {
        out += r;
        out += '\n';
    }
    return out;
}

TEST(byte_identity, fig09_grid_serial_equals_jobs4)
{
    const std::string serial = run_grid(1);
    const std::string parallel = run_grid(4);
    // The table must be non-trivial (all four points produced samples)...
    EXPECT_NE(serial.find("prague/l4span"), std::string::npos);
    EXPECT_NE(serial.find("cubic/baseline"), std::string::npos);
    EXPECT_EQ(serial.find("n=0 "), std::string::npos);
    // ...and byte-identical across worker counts.
    EXPECT_EQ(serial, parallel);
}

TEST(byte_identity, repeated_runs_are_deterministic)
{
    // Same seed, same build: two serial runs must agree bit-for-bit (the
    // in-process guarantee behind the committed-baseline diffs in CI).
    EXPECT_EQ(run_grid(1), run_grid(1));
}

// --- golden digests ---------------------------------------------------------

// FNV-1a over the exact bit patterns of everything a run reports.
struct digest {
    std::uint64_t h = 0xcbf29ce484222325ull;

    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    void add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    void add(const std::string& s)
    {
        for (const unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    }
};

template <typename Harness>
void add_flows(digest& d, const Harness& s, const std::vector<int>& handles)
{
    for (const int h : handles) {
        d.add(static_cast<std::uint64_t>(s.owd_ms(h).count()));
        for (const double v : s.owd_ms(h).raw()) d.add(v);
        for (const double v : s.rtt_ms(h).raw()) d.add(v);
        d.add(s.goodput_mbps(h));
        d.add(s.delivered_bytes(h));
        d.add(s.flow_retransmits(h));
    }
}

// Two cells, four mobile UEs each, Prague and CUBIC downloads, and a dense
// handover plan: every cell accumulates detached tombstones and forwarded
// RLC backlog while it keeps scheduling.
std::uint64_t handover_topology_digest(int jobs)
{
    scenario::topology_spec spec;
    spec.num_cells = 2;
    spec.ues_per_cell = 4;
    spec.cell.cu = scenario::cu_mode::l4span;
    spec.cell.channel = "mobile";
    spec.cell.seed = 23;
    spec.jobs = jobs;
    scenario::topology topo(spec);
    std::vector<int> handles;
    for (int ue = 0; ue < topo.num_ues(); ++ue) {
        scenario::flow_spec f;
        f.cca = ue % 2 ? "cubic" : "prague";
        f.ue = ue;
        handles.push_back(topo.add_flow(f));
    }
    topo::mobility_config mob;
    mob.num_cells = 2;
    mob.ues_per_cell = 4;
    mob.handovers_per_ue_per_sec = 2.0;
    mob.start = sim::from_ms(300);
    mob.end = sim::from_ms(2300);
    mob.seed = 9;
    topo.apply(topo::mobility_model(mob).schedule());
    topo.run(sim::from_sec(2.5));

    digest d;
    add_flows(d, topo, handles);
    d.add(topo.handovers_started());
    d.add(topo.handovers_completed());
    d.add(topo.processed_events());
    return d.h;
}

// One proportional-fair cell: unequal channels and mixed transports, so the
// PF metric (and its average-rate aging) decides every grant.
std::uint64_t proportional_fair_digest()
{
    scenario::cell_spec cell;
    cell.num_ues = 6;
    cell.channel = "pedestrian";
    cell.sched = ran::sched_policy::proportional_fair;
    cell.cu = scenario::cu_mode::l4span;
    cell.separate_drbs_per_class = true;
    cell.seed = 31;
    scenario::cell_scenario s(cell);
    const char* ccas[] = {"prague", "cubic", "bbr2", "prague", "reno", "quic-prague"};
    std::vector<int> handles;
    for (int u = 0; u < cell.num_ues; ++u) {
        scenario::flow_spec f;
        f.cca = ccas[u];
        f.ue = u;
        handles.push_back(s.add_flow(f));
    }
    // A second, classic flow on UE 0 exercises the per-UE DRB split.
    scenario::flow_spec extra;
    extra.cca = "cubic";
    extra.ue = 0;
    handles.push_back(s.add_flow(extra));
    s.run(sim::from_sec(2));

    digest d;
    add_flows(d, s, handles);
    d.add(static_cast<std::uint64_t>(s.sim_wallclock_events()));
    return d.h;
}

// A trace-replay cell whose records carry varying PRB allocations (the
// per-slot cap binds) and stretches below MCS0.
std::uint64_t trace_replay_digest()
{
    chan::synth_trace_spec ts;
    ts.name = "capped";
    ts.seed = 77;
    ts.slots = 4000;
    ts.mean_snr_db = 9.0;
    ts.sigma_db = 6.0;
    auto capped = std::make_shared<chan::trace_data>(chan::synth_trace(ts));
    for (std::size_t i = 0; i < capped->records.size(); ++i)
        capped->records[i].prbs = static_cast<int>((i * 7) % 52);
    ts.name = "wide";
    ts.seed = 78;
    ts.mean_snr_db = 14.0;
    ts.sigma_db = 3.0;
    auto wide = std::make_shared<const chan::trace_data>(chan::synth_trace(ts));

    scenario::cell_spec cell;
    cell.num_ues = 4;
    cell.channel = "trace";
    chan::trace_config a;
    a.data = capped;
    chan::trace_config b;
    b.data = wide;
    b.offset = sim::from_ms(170);
    b.time_scale = 1.5;
    cell.ue_traces = {a, b};
    cell.cu = scenario::cu_mode::l4span;
    cell.seed = 13;
    scenario::cell_scenario s(cell);
    std::vector<int> handles;
    for (int u = 0; u < cell.num_ues; ++u) {
        scenario::flow_spec f;
        f.cca = u % 2 ? "cubic" : "prague";
        f.ue = u;
        handles.push_back(s.add_flow(f));
    }
    s.run(sim::from_sec(2));

    digest d;
    add_flows(d, s, handles);
    d.add(static_cast<std::uint64_t>(s.sim_wallclock_events()));
    return d.h;
}

// A cell_mixed-shaped cell: every UE has a Prague and a CUBIC download on
// separate DRBs and every fourth adds quic-prague, over the pedestrian
// channel. Each ACK re-arms a TCP RTO or QUIC PTO hundreds of milliseconds
// out, so most of the event queue's pushes are timers that get cancelled
// long before they are due.
std::uint64_t mixed_transport_digest()
{
    scenario::cell_spec cell;
    cell.num_ues = 8;
    cell.channel = "pedestrian";
    cell.cu = scenario::cu_mode::l4span;
    cell.separate_drbs_per_class = true;
    cell.seed = 57;
    scenario::cell_scenario s(cell);
    std::vector<int> handles;
    for (int u = 0; u < cell.num_ues; ++u) {
        std::vector<const char*> ccas{"prague", "cubic"};
        if (u % 4 == 0) ccas.push_back("quic-prague");
        for (const char* cca : ccas) {
            scenario::flow_spec f;
            f.cca = cca;
            f.ue = u;
            handles.push_back(s.add_flow(f));
        }
    }
    s.run(sim::from_sec(5));

    digest d;
    add_flows(d, s, handles);
    d.add(static_cast<std::uint64_t>(s.sim_wallclock_events()));
    return d.h;
}

std::uint64_t fig09_grid_digest()
{
    digest d;
    d.add(run_grid(1));
    return d.h;
}

// The three --quick points of bench_quic_interactive, built directly on
// scenario::topology: a 60 fps frame source on UE 0 of two mobile cells,
// two bulk CUBIC background UEs and an out-and-back handover, once per
// transport (QUIC Prague, TCP Prague, TCP CUBIC).
std::uint64_t quic_interactive_quick_digest()
{
    const sim::tick duration = sim::from_ms(2500);
    digest d;
    for (const char* cca : {"quic-prague", "prague", "cubic"}) {
        scenario::topology_spec spec;
        spec.num_cells = 2;
        spec.ues_per_cell = 3;
        spec.cell.cu = scenario::cu_mode::l4span;
        spec.cell.channel = "mobile";
        spec.cell.seed = 61;
        spec.jobs = 1;
        scenario::topology topo(spec);
        scenario::flow_spec game;
        game.cca = cca;
        game.fps = 60.0;
        game.frame_bitrate_bps = 8e6;
        game.keyframe_interval_s = 2.0;
        game.keyframe_scale = 4.0;
        game.frame_deadline_ms = 50.0;
        std::vector<int> handles{topo.add_flow(game)};
        for (int ue = 1; ue <= 2; ++ue) {
            scenario::flow_spec f;
            f.cca = "cubic";
            f.ue = ue;
            f.max_cwnd = 1536 * 1024;
            handles.push_back(topo.add_flow(f));
        }
        topo.schedule_handover(duration / 3, 0, 1);
        topo.schedule_handover(2 * duration / 3, 0, 0);
        topo.run(duration);

        const media::frame_source* fr = topo.frame_stats(handles[0]);
        for (const double v : fr->frame_owd_ms().raw()) d.add(v);
        d.add(fr->stall_fraction());
        d.add(fr->frames_completed());
        d.add(fr->frames_sent());
        add_flows(d, topo, handles);
        d.add(topo.handovers_completed());
        d.add(topo.processed_events());
    }
    return d.h;
}

// The cell of examples/scenarios/wred_cell_flows.json, built directly on
// cell_scenario for each of its seeds 7, 8 and 9: six static UEs under
// L4Span with the file's WRED tables, three Prague and two CUBIC downloads.
std::uint64_t wred_cell_digest()
{
    digest d;
    for (const std::uint64_t seed : {7u, 8u, 9u}) {
        scenario::cell_spec cell;
        cell.num_ues = 6;
        cell.channel = "static";
        cell.cu = scenario::cu_mode::l4span;
        cell.seed = seed;
        cell.bottleneck_aqm = "wred";
        cell.wred.l4s = {4 * 1514, 32 * 1514, 1.0};
        cell.wred.classic = {16 * 1514, 128 * 1514, 0.08};
        cell.wred.ecn_drop_bytes = 1 << 20;
        cell.wred.l4s_weight = 8;
        cell.wred.max_bytes = 1 << 24;
        scenario::cell_scenario s(cell);
        std::vector<int> handles;
        for (int ue = 0; ue < 5; ++ue) {
            scenario::flow_spec f;
            f.cca = ue < 3 ? "prague" : "cubic";
            f.ue = ue;
            handles.push_back(s.add_flow(f));
        }
        s.run(sim::from_sec(3));
        add_flows(d, s, handles);
        d.add(static_cast<std::uint64_t>(s.sim_wallclock_events()));
    }
    return d.h;
}

// A 64-UE mobile round-robin cell with one Prague or CUBIC download per UE:
// more UEs are backlogged than the cell has PRBs, so the DL slot path
// queries the channel only for the n_prb candidates its rotation reaches.
std::uint64_t rotation_cell_digest()
{
    scenario::cell_spec cell;
    cell.num_ues = 64;
    cell.channel = "mobile";
    cell.cu = scenario::cu_mode::l4span;
    cell.seed = 67;
    scenario::cell_scenario s(cell);
    std::vector<int> handles;
    for (int u = 0; u < cell.num_ues; ++u) {
        scenario::flow_spec f;
        f.cca = u % 2 ? "cubic" : "prague";
        f.ue = u;
        handles.push_back(s.add_flow(f));
    }
    s.run(sim::from_sec(2));

    digest d;
    add_flows(d, s, handles);
    d.add(static_cast<std::uint64_t>(s.sim_wallclock_events()));
    return d.h;
}

// A scenario run through the scenario engine at jobs 1: its stdout tables
// and its JSON summary.
std::uint64_t scenario_digest(const scenario::scenario_spec& spec)
{
    scenario::bench_args args;
    args.jobs = 1;
    args.quick = spec.quick;
    stats::json summary;
    testing::internal::CaptureStdout();
    const int rc = scenario::run_scenario(spec, args, &summary);
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(rc, 0);
    EXPECT_FALSE(out.empty());
    digest d;
    d.add(out);
    d.add(summary.dump());
    return d.h;
}

// Six points behind a DualPI2 bottleneck, strip+drop with Poisson cross
// traffic among them: the AQM's bernoulli, the impairment stages' draws
// and the exponential cross-traffic gaps.
std::uint64_t ecn_impairment_quick_digest()
{
    return scenario_digest(scenario::builtin_scenario("ecn_impairment", /*quick=*/true));
}

// Exponential fault schedules and mobility draws over three cells.
std::uint64_t fault_chaos_quick_digest()
{
    return scenario_digest(scenario::load_scenario_file(
        std::string(L4SPAN_SOURCE_ROOT) + "/examples/scenarios/fault_chaos_quick.json"));
}

// Pinned on the simulator before the DL slot-path rework; see the file
// comment for when these may change.
constexpr std::uint64_t k_handover_topology = 0x0828dc3897a7d5d1ull;
constexpr std::uint64_t k_proportional_fair = 0xc0d9f16821e86cd8ull;
constexpr std::uint64_t k_trace_replay = 0xc12cf5796b99660bull;
constexpr std::uint64_t k_fig09_grid = 0xe4db28194ef17054ull;
// Pinned on the simulator before the timing-wheel event queue.
constexpr std::uint64_t k_mixed_transport = 0xb9751ad0c49546fcull;
// Pinned on the simulator before the in-house MT19937-64 engine.
constexpr std::uint64_t k_fault_chaos_quick = 0x79f143d973ce4ce2ull;
// Re-pinned when the profile table began storing each slot's own PDCP SN:
// a hook-dropped packet's SN is reused by the next packet, and the
// strip+drop rows no longer keep one stale standing entry per drop.
constexpr std::uint64_t k_ecn_impairment_quick = 0xf2508d45907cac6bull;
// Pinned on the simulator before the single-cell families became one sweep.
constexpr std::uint64_t k_quic_interactive_quick = 0xe3bdbe24ebe7ac93ull;
constexpr std::uint64_t k_wred_cell = 0x0a9251de404683f4ull;
// Pinned when round-robin began querying the channel only for the n_prb
// UEs it can grant: cells with more backlogged UEs than PRBs draw their
// fading streams at those UEs' query instants only, so this cell's output
// differs from the earlier every-UE-every-slot walk. The ten digests above
// stay unchanged, which shows smaller cells still walk every UE.
constexpr std::uint64_t k_rotation_cell = 0xf73c05e875e100c9ull;

TEST(golden_digest, handover_topology_jobs1)
{
    EXPECT_EQ(handover_topology_digest(1), k_handover_topology);
}

TEST(golden_digest, handover_topology_jobs4)
{
    EXPECT_EQ(handover_topology_digest(4), k_handover_topology);
}

TEST(golden_digest, proportional_fair_cell)
{
    EXPECT_EQ(proportional_fair_digest(), k_proportional_fair);
}

TEST(golden_digest, trace_replay_cell)
{
    EXPECT_EQ(trace_replay_digest(), k_trace_replay);
}

TEST(golden_digest, mixed_transport_cell)
{
    EXPECT_EQ(mixed_transport_digest(), k_mixed_transport);
}

TEST(golden_digest, fig09_grid)
{
    EXPECT_EQ(fig09_grid_digest(), k_fig09_grid);
}

TEST(golden_digest, ecn_impairment_quick)
{
    EXPECT_EQ(ecn_impairment_quick_digest(), k_ecn_impairment_quick);
}

TEST(golden_digest, fault_chaos_quick)
{
    EXPECT_EQ(fault_chaos_quick_digest(), k_fault_chaos_quick);
}

TEST(golden_digest, quic_interactive_quick)
{
    EXPECT_EQ(quic_interactive_quick_digest(), k_quic_interactive_quick);
}

TEST(golden_digest, wred_cell)
{
    EXPECT_EQ(wred_cell_digest(), k_wred_cell);
}

TEST(golden_digest, rotation_cell)
{
    EXPECT_EQ(rotation_cell_digest(), k_rotation_cell);
}

}  // namespace
