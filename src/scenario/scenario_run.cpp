#include "scenario/scenario_run.h"

#include <cstdio>
#include <utility>
#include <vector>

#include "scenario/bench_format.h"
#include "scenario/cell_scenario.h"
#include "scenario/topology.h"
#include "stats/table.h"
#include "topo/fault_plan.h"

namespace l4span::scenario {

namespace {

// --- sweep (fig09/13/16/17/19/24 and custom single-cell grids) -------------

// One sweep point's output. `record` holds the labels and every metric a
// figure may read; `flows` (one entry per flow) is appended after any
// baseline reductions. `row` is the point's table line.
struct point_out {
    stats::json record;
    stats::json flows = stats::json::array();
    std::vector<std::string> row;
    double owd_p50 = 0.0, rtt_p50 = 0.0;  // what a baseline comparison reads
};

point_out run_sweep_point(const sweep_point& p, sim::tick duration,
                          const bench_args& args, std::size_t index)
{
    cell_spec cell = p.cell;
    cell.impair_dl.force_stage = cell.impair_dl.force_stage || args.impair_noop;
    cell.impair_ul.force_stage = cell.impair_ul.force_stage || args.impair_noop;
    // One artifact prefix per grid point, so parallel points never write
    // over each other's JSONL files.
    if (!args.obs_out.empty()) {
        cell.obs.enabled = true;
        cell.obs.out_prefix = args.obs_out + "-" + std::to_string(index);
    }
    cell_scenario s(cell);
    std::vector<std::pair<int, flow_spec>> handles;
    for (const auto& fl : p.flows) {
        for (int k = 0; k < fl.count; ++k) {
            flow_spec f = fl.spec;
            f.ue = fl.spec.ue + k;
            handles.emplace_back(s.add_flow(f), f);
        }
    }
    s.run(duration);

    point_out out;
    stats::sample_set owd, rtt, tput, queue;  // owd/rtt pooled, tput per flow
    double rate_sum = 0.0, l4s_tput = 0.0, l4s_rtt = 0.0, rtt_p50_sum = 0.0;
    double rtt_sum = 0.0, zero = 0.0;  // zero: queue samples below half an SDU
    std::size_t rtt_n = 0;
    std::uint64_t retx = 0;
    for (const auto& [h, f] : handles) {
        stats::sample_set flow_owd;
        for (double v : s.owd_ms(h).raw()) {
            owd.add(v);
            flow_owd.add(v);
        }
        const stats::sample_set& flow_rtt = s.rtt_ms(h);
        for (double v : flow_rtt.raw()) rtt.add(v);
        rtt_sum += flow_rtt.mean() * static_cast<double>(flow_rtt.count());
        rtt_n += flow_rtt.count();
        const double rtt_p50 = flow_rtt.median();
        const double goodput = s.goodput_mbps(h);
        tput.add(goodput);
        rate_sum += goodput;
        rtt_p50_sum += rtt_p50;
        if (is_l4s_cca(f.cca)) {
            l4s_tput += goodput;
            l4s_rtt += rtt_p50;
        }
        const std::uint64_t flow_retx = s.flow_retransmits(h);
        retx += flow_retx;
        auto jf = stats::json::object();
        jf.set("cca", f.cca)
            .set("ue", f.ue)
            .set("goodput_mbps", goodput)
            .set("owd_ms", benchutil::box_json(flow_owd))
            .set("rtt_p50_ms", rtt_p50)
            .set("retransmits", flow_retx);
        out.flows.push(std::move(jf));
    }
    for (int u = 0; u < cell.num_ues; ++u) {
        for (double v : s.rlc_queue_sdus(u).raw()) {
            queue.add(v);
            if (v < 0.5) zero += 1.0;
        }
    }

    out.record = p.label;
    for (const auto& [key, v] : p.label.members())
        out.row.push_back(v.is_string() ? v.as_string() : v.dump_compact());
    out.record.set("owd_ms", benchutil::box_json(owd))
        .set("rtt_ms", benchutil::box_json(rtt))
        .set("tput_mbps", benchutil::box_json(tput))
        .set("rate_sum_mbps", rate_sum)
        .set("mean_rtt_ms", rtt_n ? rtt_sum / static_cast<double>(rtt_n) : 0.0)
        .set("queue_sdus", benchutil::box_json(queue))
        .set("frac_at_zero",
             queue.count() ? zero / static_cast<double>(queue.count()) : 0.0)
        .set("l4s_tput_share_pct", rate_sum > 0 ? 100.0 * l4s_tput / rate_sum : 0.0)
        .set("l4s_rtt_share_pct", rtt_p50_sum > 0 ? 100.0 * l4s_rtt / rtt_p50_sum : 0.0)
        .set("retransmits", retx);
    out.row.insert(out.row.end(),
                   {benchutil::box(owd), stats::table::num(rtt.median(), 1),
                    benchutil::box(tput, 2), stats::table::num(rate_sum, 1),
                    stats::table::num(queue.median(), 0), std::to_string(retx)});
    out.owd_p50 = owd.median();
    out.rtt_p50 = rtt.median();
    return out;
}

int run_sweep(const scenario_spec& spec, const bench_args& args, stats::json* summary_out)
{
    benchutil::header(spec.title.c_str(), spec.paper_ref.c_str());
    const std::vector<sweep_point> points = sweep_points(spec.sweep);
    const bool has_baseline = !spec.sweep.baseline.empty();

    grid_runner pool(args.jobs);
    std::fprintf(stderr, "%s: %zu grid points on %d worker(s)\n", spec.figure.c_str(),
                 points.size(), pool.jobs());
    auto results = pool.map(points.size(), [&](std::size_t i) {
        return run_sweep_point(points[i], spec.duration, args, i);
    });

    std::vector<std::string> columns;
    for (const auto& [key, v] : points.front().label.members()) columns.push_back(key);
    columns.insert(columns.end(), {"OWD ms p10/p25/p50/p75/p90", "RTT ms p50",
                                   "per-flow Mbit/s p10..p90", "sum Mbit/s",
                                   "RLC queue p50", "retx"});
    if (has_baseline) columns.insert(columns.end(), {"OWD reduction", "RTT reduction"});
    stats::table t(columns);
    auto json_points = stats::json::array();
    for (std::size_t i = 0; i < points.size(); ++i) {
        point_out& r = results[i];
        if (has_baseline && points[i].baseline < 0) r.row.insert(r.row.end(), {"-", "-"});
        if (points[i].baseline >= 0) {
            // 100 (1 - p50 / base p50); 0 when the base median is not positive.
            const auto reduction = [](double v, double b) {
                return b > 0.0 ? 100.0 * (1.0 - v / b) : 0.0;
            };
            const point_out& base = results[static_cast<std::size_t>(points[i].baseline)];
            const double owd = reduction(r.owd_p50, base.owd_p50);
            const double rtt = reduction(r.rtt_p50, base.rtt_p50);
            r.record.set("owd_reduction_pct", owd).set("rtt_reduction_pct", rtt);
            r.row.insert(r.row.end(), {stats::table::num(owd, 1) + "%",
                                       stats::table::num(rtt, 1) + "%"});
        }
        r.record.set("flows", std::move(r.flows));
        t.add_row(std::move(r.row));
        json_points.push(std::move(r.record));
    }
    t.print();
    auto summary = stats::json::object();
    summary.set("figure", spec.figure).set("quick", spec.quick);
    summary.set("points", std::move(json_points));
    if (summary_out) *summary_out = summary;
    return benchutil::finish(args, summary);
}

// --- ecn_impairment (bench_ecn_impairment) ----------------------------------

int run_ecn_impairment(const scenario_spec& spec, const bench_args& args,
                       stats::json* summary_out)
{
    const ecn_impairment_family& fam = spec.ecn_impairment;
    benchutil::header(spec.title.c_str(), spec.paper_ref.c_str());

    struct grid_point {
        const ecn_impairment_family::transport* cca;
        const ecn_impairment_family::profile* profile;
        bool cross;
    };
    struct point_result {
        stats::sample_set owd_ms;  // pooled over all flows
        double goodput_mbps = 0.0;
        std::uint64_t retransmits = 0;
        std::uint64_t ce_applied = 0;    // bottleneck AQM + CU marks
        std::uint64_t ce_delivered = 0;  // receiver-observed CE packets
        int fallbacks = 0;               // senders that reverted to Not-ECT
        std::uint64_t cross_packets = 0;
    };

    std::vector<grid_point> points;
    for (const auto& cca : fam.ccas)
        for (const auto& pr : fam.profiles)
            for (const bool cross : fam.cross_options)
                points.push_back({&cca, &pr, cross});

    grid_runner pool(args.jobs);
    std::fprintf(stderr, "%s: %zu grid points on %d worker(s)\n",
                 spec.figure.c_str(), points.size(), pool.jobs());
    const auto results = pool.map(points.size(), [&](std::size_t i) {
        const grid_point& p = points[i];
        cell_spec cell;
        cell.num_ues = fam.ues;
        cell.channel = "static";
        cell.cu = cu_mode::l4span;
        cell.seed = fam.seed;
        cell.bottleneck_bps = fam.bottleneck_bps;
        cell.bottleneck_aqm = fam.bottleneck_aqm;
        cell.impair_dl = p.profile->impair;
        cell.impair_dl.force_stage = true;  // "clean" exercises the pass-through
        cell.l4s.drop_non_ecn = p.profile->drop_non_ecn;
        if (p.cross) {
            topo::cross_traffic_spec bg;
            bg.model = "poisson";
            bg.rate_bps = fam.cross_rate_bps;
            cell.cross_traffic.push_back(bg);
        }

        cell_scenario s(cell);
        std::vector<int> handles;
        for (int u = 0; u < fam.ues; ++u) {
            flow_spec f;
            f.cca = p.cca->cca;
            f.ue = u;
            f.max_cwnd = 1536 * 1024;
            handles.push_back(s.add_flow(f));
        }
        s.run(spec.duration);

        point_result r;
        for (int h : handles) {
            for (double v : s.owd_ms(h).raw()) r.owd_ms.add(v);
            r.goodput_mbps += s.goodput_mbps(h);
            r.retransmits += s.flow_retransmits(h);
            r.ce_delivered += s.flow_ce_packets(h);
            if (s.flow_ecn_fallback(h)) ++r.fallbacks;
        }
        r.ce_applied = s.bottleneck_ce_marks();
        if (const core::l4span* l4s = s.l4span_layer()) r.ce_applied += l4s->marks();
        r.cross_packets = s.cross_traffic_packets();
        return r;
    });

    auto summary = stats::json::object();
    summary.set("figure", spec.figure).set("quick", spec.quick);
    auto json_points = stats::json::array();

    stats::table t({"cca", "impairment", "cross", "OWD ms p50/p90/p99",
                    "sum Mbit/s", "retx", "CE deliv/applied", "fallback"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        const grid_point& p = points[i];
        const point_result& r = results[i];
        char owd[96];
        std::snprintf(owd, sizeof(owd), "%.1f/%.1f/%.1f", r.owd_ms.median(),
                      r.owd_ms.percentile(90), r.owd_ms.percentile(99));
        char ce[64];
        std::snprintf(ce, sizeof(ce), "%llu/%llu",
                      static_cast<unsigned long long>(r.ce_delivered),
                      static_cast<unsigned long long>(r.ce_applied));
        t.add_row({p.cca->label, p.profile->name, p.cross ? "poisson" : "-", owd,
                   stats::table::num(r.goodput_mbps, 1),
                   std::to_string(r.retransmits), ce,
                   std::to_string(r.fallbacks)});

        const double ce_ratio =
            r.ce_applied > 0
                ? static_cast<double>(r.ce_delivered) /
                      static_cast<double>(r.ce_applied)
                : 1.0;
        auto jp = stats::json::object();
        jp.set("cca", p.cca->label)
            .set("impairment", p.profile->name)
            .set("cross_traffic", p.cross)
            .set("owd_ms", benchutil::box_json(r.owd_ms))
            .set("owd_p99_ms", r.owd_ms.percentile(99))
            .set("goodput_mbps", r.goodput_mbps)
            .set("retransmits", r.retransmits)
            .set("ce_applied", r.ce_applied)
            .set("ce_delivered", r.ce_delivered)
            .set("ce_delivery_ratio", ce_ratio)
            .set("ecn_fallbacks", r.fallbacks)
            .set("cross_packets", r.cross_packets);
        json_points.push(std::move(jp));
    }
    t.print();
    summary.set("points", std::move(json_points));
    if (summary_out) *summary_out = summary;
    return benchutil::finish(args, summary);
}

// --- fault_chaos (bench_fault_chaos) ----------------------------------------

int run_fault_chaos(const scenario_spec& spec, const bench_args& args,
                    stats::json* summary_out)
{
    const fault_chaos_family& fam = spec.fault_chaos;
    benchutil::header(spec.title.c_str(), spec.paper_ref.c_str());

    struct point_result {
        stats::sample_set owd_ms;       // pooled over all flows
        stats::sample_set tput_mbps;    // one sample per flow
        stats::sample_set recovery_ms;  // per recovered fault
        double stall_fraction = -1.0;   // media rows only
        std::uint64_t retransmits = 0;
        std::uint64_t injected = 0;
        std::uint64_t rlf_detected = 0;
        std::uint64_t reestablishments = 0;
        std::uint64_t ho_failures = 0;
        std::uint64_t ho_rollbacks = 0;
        std::uint64_t events = 0;
    };

    // The points run serially: each topology shards its cells over `jobs`
    // workers internally, which is where the parallelism already lives.
    const int jobs = args.jobs > 0 ? args.jobs : default_jobs();

    auto run_point = [&](const fault_chaos_family::profile& profile,
                         const fault_chaos_family::transport& tr,
                         const std::string& obs_out) {
        topology_spec tspec;
        tspec.num_cells = fam.num_cells;
        tspec.ues_per_cell = fam.ues_per_cell;
        tspec.cell.cu = cu_mode::l4span;
        tspec.cell.channel = "static";
        tspec.cell.seed = fam.cell_seed;
        tspec.wired_bps = fam.wired_bps;
        tspec.jobs = jobs;
        if (!obs_out.empty()) {
            // Flight recorder on: every injected fault dumps the firing
            // shard's last-N trace events to <prefix>.incident-*.jsonl, and
            // run() writes the end-of-run metrics + merged trace. Measured
            // results must be byte-identical with or without this.
            tspec.cell.obs.enabled = true;
            tspec.cell.obs.out_prefix = obs_out;
        }
        topology topo(tspec);

        std::vector<int> handles;
        for (int ue = 0; ue < topo.num_ues(); ++ue) {
            flow_spec f;
            f.cca = tr.cca;
            f.ue = ue;
            f.max_cwnd = 1536 * 1024;
            if (tr.media) {
                f.fps = 30.0;
                f.frame_bitrate_bps = 6e6;
            }
            handles.push_back(topo.add_flow(f));
        }

        topo::fault_plan_config fc;
        fc.num_cells = fam.num_cells;
        fc.ues_per_cell = fam.ues_per_cell;
        fc.start = sim::from_ms(fam.fault_start_ms);
        fc.end = spec.duration - sim::from_ms(fam.fault_end_margin_ms);
        fc.seed = fam.fault_seed;
        fc.rlf_per_ue_per_sec = profile.rlf_per_ue_per_sec;
        fc.ho_failure_per_ue_per_sec = profile.ho_failure_per_ue_per_sec;
        fc.outages_per_cell_per_sec = profile.outages_per_cell_per_sec;
        fc.flaps_per_cell_per_sec = profile.flaps_per_cell_per_sec;
        if (fc.any_enabled()) topo.apply_faults(topo::fault_plan(fc));

        topo.run(spec.duration);

        point_result r;
        for (const int h : handles) {
            for (double v : topo.owd_ms(h).raw()) r.owd_ms.add(v);
            r.tput_mbps.add(topo.goodput_mbps(h));
            r.retransmits += topo.flow_retransmits(h);
            if (const auto* fs = topo.frame_stats(h)) {
                if (r.stall_fraction < 0.0) r.stall_fraction = 0.0;
                r.stall_fraction += fs->stall_fraction() /
                                    static_cast<double>(handles.size());
            }
        }
        for (double v : topo.recovery_ms()) r.recovery_ms.add(v);
        for (auto cls : {topo::fault_class::rlf, topo::fault_class::handover_failure,
                         topo::fault_class::cell_outage, topo::fault_class::link_flap})
            r.injected += topo.faults_injected(cls);
        r.rlf_detected = topo.rlf_detected();
        r.reestablishments = topo.reestablishments();
        r.ho_failures = topo.ho_failures();
        r.ho_rollbacks = topo.ho_rollbacks();
        r.events = topo.processed_events();
        return r;
    };

    auto summary = stats::json::object();
    summary.set("figure", spec.figure).set("quick", spec.quick);
    auto json_points = stats::json::array();

    stats::table t({"faults", "transport", "injected", "recov ms p50/p90",
                    "OWD ms p10/p25/p50/p75/p90", "Mbit/s p50", "retx",
                    "stall frac"});
    for (const auto& profile : fam.profiles) {
        for (const auto& tr : fam.transports) {
            const std::string obs =
                args.obs_out.empty()
                    ? std::string()
                    : args.obs_out + "-" + profile.name + "-" + tr.cca +
                          (tr.media ? "-media" : "");
            const auto r = run_point(profile, tr, obs);
            char recov[64];
            std::snprintf(recov, sizeof(recov), "%.0f/%.0f",
                          r.recovery_ms.median(), r.recovery_ms.percentile(90));
            char stall[32];
            if (r.stall_fraction >= 0.0)
                std::snprintf(stall, sizeof(stall), "%.3f", r.stall_fraction);
            else
                std::snprintf(stall, sizeof(stall), "-");
            t.add_row({profile.name, tr.cca + (tr.media ? " (media)" : ""),
                       std::to_string(r.injected),
                       r.recovery_ms.count() ? recov : "-",
                       benchutil::box(r.owd_ms),
                       stats::table::num(r.tput_mbps.median(), 2),
                       std::to_string(r.retransmits), stall});
            auto jp = stats::json::object();
            jp.set("faults", profile.name)
                .set("cca", tr.cca)
                .set("media", tr.media)
                .set("faults_injected", r.injected)
                .set("rlf_detected", r.rlf_detected)
                .set("reestablishments", r.reestablishments)
                .set("ho_failures", r.ho_failures)
                .set("ho_rollbacks", r.ho_rollbacks)
                .set("recovery_ms", benchutil::box_json(r.recovery_ms))
                .set("owd_ms", benchutil::box_json(r.owd_ms))
                .set("tput_mbps", benchutil::box_json(r.tput_mbps))
                .set("retransmits", r.retransmits)
                .set("stall_fraction", r.stall_fraction)
                .set("sim_events", r.events);
            json_points.push(std::move(jp));
        }
    }
    t.print();
    summary.set("points", std::move(json_points));
    if (summary_out) *summary_out = summary;
    return benchutil::finish(args, summary);
}

// --- builtin sweeps -----------------------------------------------------------
// Axis values are written in scenario-file form, exactly as a JSON file
// would spell them.

stats::json one(const char* key, stats::json v)
{
    return stats::json::object().set(key, std::move(v));
}

// A {"cell": cell, "flows": [flow]} override, leaving out a null part. The
// flow part overrides the first flow only (arrays merge by index).
stats::json override_of(stats::json cell, stats::json flow = {})
{
    auto set = stats::json::object();
    if (!cell.is_null()) set.set("cell", std::move(cell));
    if (!flow.is_null()) set.set("flows", stats::json::array().push(std::move(flow)));
    return set;
}

// An axis named after its one label key: value x is labelled {name: x}
// and applies set(x).
template <class T, class Set>
sweep_family::axis axis_of(const char* name, const std::vector<T>& xs, Set set)
{
    sweep_family::axis a{name, {}};
    for (const T& x : xs) a.values.push_back({one(name, stats::json(x)), set(x)});
    return a;
}

sweep_family::axis cca_axis(const std::vector<std::string>& ccas, const char* name = "cca")
{
    return axis_of(name, ccas,
                   [](const std::string& c) { return override_of({}, one("cca", c)); });
}

sweep_family::axis chan_axis(const std::vector<std::string>& chans)
{
    return axis_of("chan", chans,
                   [](const std::string& c) { return override_of(one("channel", c)); });
}

// {vanilla, +L4Span}: the baseline axis of the delay-reduction grids.
sweep_family::axis l4span_axis()
{
    return axis_of("l4span", std::vector<bool>{false, true}, [](bool on) {
        return override_of(one("cu", on ? "l4span" : "none"));
    });
}

// UE count: the cell size and the replica count of the one flow.
sweep_family::axis ues_axis(const std::vector<int>& ue_counts)
{
    return axis_of("ues", ue_counts,
                   [](int n) { return override_of(one("num_ues", n), one("count", n)); });
}

// Names a builtin sweep and returns its parameter block.
sweep_family& sweep_builtin(scenario_spec& spec, const char* figure, const char* title,
                            const char* paper_ref, double seconds)
{
    spec.figure = figure;
    spec.title = title;
    spec.paper_ref = paper_ref;
    spec.family = "sweep";
    spec.duration = sim::from_sec(seconds);
    return spec.sweep;
}

// The Fig. 9/24 congested cell: `ues` long-lived downloads of one CCA with
// the Linux default-autotuned receive window, crossed over cell size (RLC
// queue x UE count, seeded seed_base + ues + queue), CCA, channel and
// {vanilla, +L4Span}.
void congested_cell_grid(sweep_family& sw, std::uint64_t seed_base,
                         const std::vector<std::size_t>& queues,
                         const std::vector<int>& ue_counts,
                         const std::vector<std::string>& ccas,
                         const std::vector<std::string>& chans)
{
    sweep_family::flow f;
    f.spec.max_cwnd = 1536 * 1024;
    sw.flows = {f};
    sweep_family::axis size{"cell_size", {}};
    for (const std::size_t q : queues) {
        for (const int n : ue_counts) {
            const auto label = one("rlc_queue_sdus", q).set("ues", n);
            const auto cell = one("num_ues", n).set("rlc_queue_sdus", q).set(
                "seed", seed_base + static_cast<std::uint64_t>(n) + q);
            size.values.push_back({label, override_of(cell, one("count", n))});
        }
    }
    sw.axes = {size, cca_axis(ccas), chan_axis(chans), l4span_axis()};
    sw.baseline = "l4span";
}

}  // namespace

scenario_spec builtin_scenario(const std::string& name, bool quick)
{
    scenario_spec spec;
    spec.quick = quick;
    if (name == "fig09") {
        sweep_family& sw = sweep_builtin(
            spec, "fig09", "Fig. 9: TCP one-way delay vs per-UE throughput grid",
            "L4Span cuts Prague/CUBIC median OWD by ~98% (static), ~97% "
            "(mobile), BBRv2 by ~52%, at <10% median throughput cost",
            6);
        std::vector<double> base_rtts{38.0, 106.0};
        if (quick) {  // 2-point CI slice: one cell, with and without L4Span
            base_rtts = {38.0};
            congested_cell_grid(sw, 1000, {256}, {16}, {"prague"}, {"static"});
        } else {
            congested_cell_grid(sw, 1000, {16384, 256}, {16, 64},
                                {"prague", "bbr2", "cubic"}, {"static", "mobile"});
        }
        // Base RTT is twice the one-way server->core delay.
        sw.axes.insert(sw.axes.begin(), axis_of("base_rtt_ms", base_rtts, [](double rtt) {
                           return override_of({}, one("wired_owd_ms", rtt / 2));
                       }));
        return spec;
    }
    if (name == "fig24") {
        // The default 19 ms one-way wired delay (~38 ms base RTT).
        sweep_family& sw = sweep_builtin(
            spec, "fig24", "Fig. 24: BBR and Reno grid",
            "Reno OWD -97%; BBR roughly unchanged medians (no ECN react)", 6);
        if (quick)
            congested_cell_grid(sw, 2000, {256}, {16}, {"reno"}, {"static"});
        else
            congested_cell_grid(sw, 2000, {16384, 256}, {16, 64}, {"bbr", "reno"},
                                {"static", "mobile"});
        return spec;
    }
    if (name == "fig13") {
        sweep_family& sw = sweep_builtin(
            spec, "fig13", "Fig. 13: SCReAM and UDP Prague with L4Span",
            "RTT reductions: UDP Prague 76/38/45%, SCReAM 13/11/38% "
            "(static/pedestrian/vehicular) at modest throughput cost",
            10);
        sw.cell.num_ues = 8;
        sw.cell.seed = 53;
        sweep_family::flow f;
        f.spec.wired_owd_ms = 5.0;  // local media server
        f.count = 8;
        sw.flows = {f};
        if (quick)  // 2-point CI slice: one cell, with and without L4Span
            sw.axes = {cca_axis({"udp-prague"}, "algo"), chan_axis({"static"})};
        else
            sw.axes = {cca_axis({"udp-prague", "scream"}, "algo"),
                       chan_axis({"static", "pedestrian", "vehicular"})};
        sw.axes.push_back(l4span_axis());
        sw.baseline = "l4span";
        return spec;
    }
    if (name == "fig16") {
        // One UE whose Prague and CUBIC flows share a single DRB.
        sweep_family& sw = sweep_builtin(
            spec, "fig16", "Fig. 16: shared-DRB marking strategies",
            "'original' starves L4S, 'L4S-for-all' starves classic "
            "(~25%), 'classic-for-all' is noisy; L4Span's coupling "
            "lands near 50/50 with the least variance",
            15);
        sw.cell.seed = 71;
        sweep_family::flow prague, cubic;
        cubic.spec.cca = "cubic";
        sw.flows = {prague, cubic};
        const std::pair<const char*, const char*> strategies[] = {
            {"original", "original"},
            {"L4S-for-all", "l4s_all"},
            {"classic-for-all", "classic_all"},
            {"L4Span (coupled)", "coupled"}};
        sweep_family::axis a{"strategy", {}};
        for (const auto& [label, policy] : strategies) {
            const auto set = override_of(one("l4s", one("shared_policy", policy)));
            a.values.push_back({one("strategy", label), set});
        }
        if (quick)  // CI slice: the strawman vs the paper's design
            a.values = {a.values.front(), a.values.back()};
        sw.axes = {a};
        return spec;
    }
    if (name == "fig17") {
        sweep_family& sw = sweep_builtin(
            spec, "fig17", "Fig. 17: RLC queue CDFs under L4Span",
            "L4S queues stay in the ~10 SDU range; classic queues keep "
            "a working buffer and rarely reach zero",
            6);
        sw.cell.seed = 83;
        sweep_family::flow f;
        f.spec.max_cwnd = 1536 * 1024;
        sw.flows = {f};
        // CI slice: both classes, one small cell.
        sw.axes = {ues_axis(quick ? std::vector<int>{16} : std::vector<int>{16, 64}),
                   cca_axis({"prague", "cubic"}),
                   chan_axis(quick ? std::vector<std::string>{"static"}
                                   : std::vector<std::string>{"static", "mobile"})};
        return spec;
    }
    if (name == "fig19") {
        sweep_family& sw = sweep_builtin(
            spec, "fig19", "Fig. 19: sojourn threshold tau_s sweep",
            "throughput saturates around tau_s = 10 ms while RTT keeps "
            "growing with the threshold",
            6);
        sw.cell.seed = 89;
        sw.flows = {sweep_family::flow{}};
        const std::vector<double> taus =
            quick ? std::vector<double>{10.0}
                  : std::vector<double>{1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0};
        const auto tau_set = [](double tau) {
            return override_of(one("l4s", one("sojourn_threshold_ms", tau)));
        };
        sw.axes = {axis_of("tau_ms", taus, tau_set),
                   ues_axis(quick ? std::vector<int>{1, 4}
                                  : std::vector<int>{1, 4, 16, 64})};
        return spec;
    }
    if (name == "ecn_impairment") {
        spec.figure = "ecn_impairment";
        spec.title = "ECN path-impairment grid (bleach/strip/remark/loss/reorder)";
        spec.paper_ref =
            "robustness item: L4Span + Prague/CUBIC/BBRv2 when the wired path "
            "bleaches or strips ECN (cf. \"A Fresh Look at ECN Traversal\")";
        spec.family = "ecn_impairment";
        spec.duration = sim::from_sec(5);
        ecn_impairment_family& f = spec.ecn_impairment;
        f.profiles.push_back({"clean", false, {}});
        {
            ecn_impairment_family::profile p;
            p.name = "bleach";
            p.impair.bleach_ce = 1.0;  // congestion signal erased, ECT restored
            f.profiles.push_back(std::move(p));
        }
        {
            ecn_impairment_family::profile p;
            p.name = "remark";
            p.impair.remark_ect1 = 1.0;  // L4S identifier erased -> classic
            f.profiles.push_back(std::move(p));
        }
        {
            ecn_impairment_family::profile p;
            p.name = "strip";
            p.impair.strip_ect = 1.0;  // path declares the flow non-ECN-capable
            f.profiles.push_back(std::move(p));
        }
        {
            // Same stripped path, but the CU sheds queue instead of letting
            // the demoted flow sit in a seconds-deep RLC backlog.
            ecn_impairment_family::profile p;
            p.name = "strip+drop";
            p.drop_non_ecn = true;
            p.impair.strip_ect = 1.0;
            f.profiles.push_back(std::move(p));
        }
        {
            ecn_impairment_family::profile p;
            p.name = "loss";
            p.impair.loss = 0.01;
            p.impair.loss_burst = 4.0;  // Gilbert bursts, ~1% stationary loss
            f.profiles.push_back(std::move(p));
        }
        {
            ecn_impairment_family::profile p;
            p.name = "reorder";
            p.impair.reorder = 0.02;
            p.impair.reorder_gap = 5;
            f.profiles.push_back(std::move(p));
        }
        {
            // Everything at once: the worst path the traversal study saw.
            ecn_impairment_family::profile p;
            p.name = "liar";
            p.impair.bleach_ce = 1.0;
            p.impair.remark_ect1 = 1.0;
            p.impair.loss = 0.005;
            p.impair.loss_burst = 2.0;
            p.impair.reorder = 0.01;
            p.impair.duplicate = 0.005;
            f.profiles.push_back(std::move(p));
        }
        f.ccas = {{"prague", "tcp-prague"},
                  {"quic-prague", "quic-prague"},
                  {"cubic", "tcp-cubic"},
                  {"bbr2", "tcp-bbr2"}};
        if (quick) {  // CI slice: 2 transports x 3 profiles, cross on
            f.ccas = {{"prague", "tcp-prague"}, {"quic-prague", "quic-prague"}};
            f.profiles = {f.profiles[0], f.profiles[3], f.profiles[4]};
            f.cross_options = {true};
            f.ues = 2;
            spec.duration = sim::from_sec(2);
        }
        return spec;
    }
    if (name == "fault_chaos") {
        spec.figure = "fault_chaos";
        spec.title = "Fault-injection chaos grid (fault class x transport)";
        spec.paper_ref =
            "graceful degradation under RLF / handover failure / "
            "cell outage / link flaps: bounded recovery, no wedged "
            "flows, interactive media resumes after blackouts";
        spec.family = "fault_chaos";
        spec.duration = sim::from_sec(6);
        spec.fault_chaos.profiles = {
            {"baseline", 0.0, 0.0, 0.0, 0.0},
            {"rlf", 0.6, 0.0, 0.0, 0.0},
            {"ho-failure", 0.0, 0.6, 0.0, 0.0},
            {"cell-outage", 0.0, 0.0, 0.3, 0.0},
            {"link-flap", 0.0, 0.0, 0.0, 0.5},
            {"chaos-mix", 0.4, 0.3, 0.15, 0.25},
        };
        spec.fault_chaos.transports = {
            {"prague", false}, {"cubic", false}, {"quic-prague", true}};
        if (quick) {
            spec.fault_chaos.profiles = {{"baseline", 0, 0, 0, 0},
                                         {"chaos-mix", 0.4, 0.3, 0.15, 0.25}};
            spec.fault_chaos.transports = {{"prague", false}};
            spec.duration = sim::from_sec(3);
        }
        return spec;
    }
    throw scenario_error("unknown builtin scenario \"" + name +
                         "\" (valid: fig09, fig13, fig16, fig17, fig19, fig24, "
                         "ecn_impairment, fault_chaos)");
}

int run_scenario(const scenario_spec& spec, const bench_args& args,
                 stats::json* summary_out)
{
    spec.validate();
    if (spec.family == "sweep") return run_sweep(spec, args, summary_out);
    if (spec.family == "ecn_impairment")
        return run_ecn_impairment(spec, args, summary_out);
    if (spec.family == "fault_chaos")
        return run_fault_chaos(spec, args, summary_out);
    throw scenario_error("run_scenario: unknown family \"" + spec.family + "\"");
}

}  // namespace l4span::scenario
