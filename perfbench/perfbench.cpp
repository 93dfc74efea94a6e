// perfbench: the repository benchmark. Drives the simulator from outside,
// through its public harness APIs only (scenario::cell_scenario,
// scenario::topology, scenario::grid_runner, scenario::run_scenario and the
// public accessors of ran::gnb, core::l4span, sim::event_loop and topo::*),
// and reports host cost (set-up, wall, CPU, memory) next to the simulated
// result (one-way delay, goodput) for three workloads.
//
//   perfbench --workload cell_mixed|multicell_dense|impairment_grid
//             --seed N --seconds S --trace 0|1 [--size full|tiny]
//   perfbench --check-scenario --seed N [--size full|tiny]
//
// The last stdout line is one JSON object: workload, correctness verdict,
// points attempted/failed, the run manifest, and every metric as a unit plus
// its raw samples. perfbench/run.py builds this program, turns the samples
// into medians and prints the contract line. README.md explains the
// workloads and the layer -> end-to-end map.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "scenario/cell_scenario.h"
#include "scenario/grid_runner.h"
#include "scenario/scenario_run.h"
#include "scenario/scenario_spec.h"
#include "scenario/topology.h"
#include "stats/json.h"
#include "topo/mobility_model.h"

namespace {

using namespace l4span;
using ns_t = std::int64_t;

// --- clocks and host facts ---------------------------------------------------

ns_t wall_now()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

ns_t cpu_now()  // user + system time of every thread of this process
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<ns_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int host_cpus()  // the CPUs this process may run on (what `nproc` prints)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

double sec(ns_t ns) { return static_cast<double>(ns) * 1e-9; }

double median(std::vector<double> v)
{
    if (v.empty()) return std::nan("");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Every cell, mobility and impairment seed of a workload comes from the
// benchmark seed through this splitmix64 step, one `role` per consumer.
// The result is a positive 31-bit value, safe for any seed field.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t role)
{
    std::uint64_t x = seed + 0x9e3779b97f4a7c15ull * (role + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    return (x >> 33) | 1;
}

// FNV-1a over the bits of a run's simulated outputs: two runs are
// bit-identical exactly when their digests match.
struct digest {
    std::uint64_t h = 1469598103934665603ull;
    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
    void add(const stats::sample_set& s)
    {
        add(static_cast<std::uint64_t>(s.count()));
        for (const double v : s.raw()) add(v);
    }
};

// --- CU-hook timing wrapper ----------------------------------------------------

struct span_stat {
    std::uint64_t calls = 0;
    ns_t ns = 0;
};

// Times the three CU event classes of §4.1 around the cell's own hook. It is
// installed through ran::gnb::set_cu_hook, so it sees exactly the calls the
// gNB makes; handover state transfer goes to the inner hook untimed.
class timed_hook final : public ran::cu_hook {
public:
    explicit timed_hook(ran::cu_hook& inner) : inner_(inner) {}

    bool on_dl_packet(net::packet& pkt, ran::rnti_t ue, ran::drb_id_t drb,
                      ran::pdcp_sn_t sn, sim::tick now) override
    {
        const ns_t t0 = wall_now();
        const bool keep = inner_.on_dl_packet(pkt, ue, drb, sn, now);
        add(dl, t0);
        return keep;
    }
    bool on_ul_packet(net::packet& pkt, ran::rnti_t ue, sim::tick now) override
    {
        const ns_t t0 = wall_now();
        const bool keep = inner_.on_ul_packet(pkt, ue, now);
        add(ul, t0);
        return keep;
    }
    void on_delivery_status(const ran::dl_delivery_status& st, sim::tick now) override
    {
        const ns_t t0 = wall_now();
        inner_.on_delivery_status(st, now);
        add(fb, t0);
    }
    void on_dl_discard(ran::rnti_t ue, ran::drb_id_t drb, ran::pdcp_sn_t sn,
                       sim::tick now) override
    {
        inner_.on_dl_discard(ue, drb, sn, now);
    }
    std::unique_ptr<ue_state> detach_ue(ran::rnti_t ue) override
    {
        return inner_.detach_ue(ue);
    }
    void attach_ue(ran::rnti_t ue, std::unique_ptr<ue_state> st) override
    {
        inner_.attach_ue(ue, std::move(st));
    }

    span_stat dl, ul, fb;

private:
    static void add(span_stat& s, ns_t t0)
    {
        s.ns += wall_now() - t0;
        ++s.calls;
    }
    ran::cu_hook& inner_;
};

class empty_hook final : public ran::cu_hook {
public:
    bool on_dl_packet(net::packet&, ran::rnti_t, ran::drb_id_t, ran::pdcp_sn_t,
                      sim::tick) override
    {
        return true;
    }
    bool on_ul_packet(net::packet&, ran::rnti_t, sim::tick) override { return true; }
    void on_delivery_status(const ran::dl_delivery_status&, sim::tick) override {}
};

// Mean cost per wrapped call of the wrapper itself (clock reads plus the
// extra virtual dispatch), measured around an empty inner hook. The core.*_ns
// metrics subtract it, so they are net of the wrapper.
struct hook_calibration {
    double dl_ns = 0, ul_ns = 0, fb_ns = 0;
};

hook_calibration calibrate_hook()
{
    empty_hook inner;
    auto wrapper = std::make_unique<timed_hook>(inner);
    ran::cu_hook* hook = wrapper.get();
    // Hide the dynamic type so the calls stay virtual, as from the gNB.
    asm volatile("" : "+r"(hook));
    net::packet pkt;
    ran::dl_delivery_status st{};
    // Median over batches, so one preempted batch cannot skew the result.
    std::vector<double> dl, ul, fb;
    const auto batch_mean = [](span_stat& s) {
        const double m = static_cast<double>(s.ns) / static_cast<double>(s.calls);
        s = {};
        return m;
    };
    for (int batch = 0; batch < 9; ++batch) {
        for (int i = 0; i < 20'000; ++i) {
            hook->on_dl_packet(pkt, 1, 1, static_cast<ran::pdcp_sn_t>(i), i);
            hook->on_ul_packet(pkt, 1, i);
            hook->on_delivery_status(st, i);
        }
        dl.push_back(batch_mean(wrapper->dl));
        ul.push_back(batch_mean(wrapper->ul));
        fb.push_back(batch_mean(wrapper->fb));
    }
    return {median(dl), median(ul), median(fb)};
}

// --- one execution of a workload ----------------------------------------------

// Per-point outputs of the impairment grid, in the shape run_scenario's
// ecn_impairment summary reports them (the self-test compares the two).
struct grid_point_result {
    stats::sample_set owd_ms;
    double goodput_mbps = 0.0;
    std::uint64_t retransmits = 0;
    std::uint64_t ce_applied = 0;
    std::uint64_t ce_delivered = 0;
    int fallbacks = 0;
    std::uint64_t cross_packets = 0;
};

struct run_outcome {
    // Host phases: set-up until the first run(), run() itself, then result
    // collection including teardown. wall = run + collect.
    ns_t setup_ns = 0, run_ns = 0, collect_ns = 0, wall_ns = 0, cpu_ns = 0;
    std::vector<ns_t> point_ns;  // run() time of each grid point
    int grid_jobs = 1;           // workers the points fan out over
    int hook_threads = 1;        // threads executing CU hooks concurrently

    // Simulated outputs (deterministic per seed).
    stats::sample_set owd_ms;  // pooled over all measured flows
    double goodput_mbps = 0.0;
    std::vector<std::uint64_t> point_digest;
    std::vector<grid_point_result> grid_points;  // impairment_grid only

    // Layer counters (public accessors, read after run()).
    std::uint64_t events = 0, slots = 0, ue_slots = 0, rlc_drops = 0;
    stats::sample_set rlc_queue_sdus;
    std::uint64_t marks = 0, dl_events = 0, core_drops = 0, bottleneck_marks = 0;
    std::uint64_t retransmits = 0, delivered_segments = 0, ce_delivered = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t impair_input = 0, impair_lost = 0, impair_stripped = 0;
    std::uint64_t ho_started = 0, ho_completed = 0;
    span_stat dl, ul, fb;  // traced runs only

    int points = 0;
    // Invariant violations as (point index, what).
    std::vector<std::pair<int, std::string>> failures;
};

// Phase boundaries of one execution: set-up from construction to
// start_run(), run() up to end_run(), then collection and teardown until
// finish(). wall = run + collect exactly, in integer nanoseconds.
class phase_clock {
public:
    void start_run()
    {
        run_start_ = wall_now();
        cpu_start_ = cpu_now();
    }
    ns_t end_run()  // returns the run time
    {
        run_end_ = wall_now();
        return run_end_ - run_start_;
    }
    void finish(run_outcome& out) const
    {
        const ns_t end = wall_now();
        out.cpu_ns = cpu_now() - cpu_start_;
        out.setup_ns = run_start_ - setup_start_;
        out.run_ns = run_end_ - run_start_;
        out.collect_ns = end - run_end_;
        out.wall_ns = end - run_start_;
    }

private:
    ns_t setup_start_ = wall_now();
    ns_t run_start_ = 0, run_end_ = 0, cpu_start_ = 0;
};

struct workload_args {
    std::string name;
    std::uint64_t seed = 1;
    bool tiny = false;
};

// Records a violation against the point being collected (finish_point
// advances the index).
void fail(run_outcome& out, const std::string& what)
{
    out.failures.emplace_back(out.points, what);
}

void add_hook_counts(run_outcome& out, const core::l4span& l4s, const timed_hook* th,
                     const std::string& where)
{
    out.marks += l4s.marks();
    out.dl_events += l4s.dl_events();
    out.core_drops += l4s.drops();
    if (l4s.marks() > l4s.dl_events()) fail(out, where + ": L4Span marks > dl_events");
    if (!th) return;
    out.dl.calls += th->dl.calls;
    out.dl.ns += th->dl.ns;
    out.ul.calls += th->ul.calls;
    out.ul.ns += th->ul.ns;
    out.fb.calls += th->fb.calls;
    out.fb.ns += th->fb.ns;
    if (th->dl.calls != l4s.dl_events() || th->ul.calls != l4s.ul_events() ||
        th->fb.calls != l4s.feedback_events())
        fail(out, where + ": wrapped hook calls differ from L4Span event counters");
}

void add_impairment(run_outcome& out, const topo::path_impairment* stage,
                    const std::string& where)
{
    if (!stage) return;
    const topo::impairment_stats& st = stage->stats();
    out.impair_input += st.input;
    out.impair_lost += st.lost;
    out.impair_stripped += st.stripped;
    if (st.delivered > st.input + st.duplicated)
        fail(out, where + ": impairment delivered > input + duplicated");
}

// Per-flow outputs of a cell_scenario, pooled into `pr`, plus the
// delivered <= sent invariant. A TCP sender never has more than max_cwnd
// (+ one segment) beyond its cumulative ACK, so the receiver cannot hold
// more than that; a QUIC receiver cannot hold more than the packets sent.
void collect_cell_flows(const scenario::cell_scenario& s,
                        const std::vector<std::pair<int, scenario::flow_spec>>& flows,
                        grid_point_result& pr, run_outcome& out, digest& d,
                        const std::string& where)
{
    for (const auto& [h, spec] : flows) {
        for (const double v : s.owd_ms(h).raw()) pr.owd_ms.add(v);
        const double gp = s.goodput_mbps(h);
        pr.goodput_mbps += gp;
        pr.retransmits += s.flow_retransmits(h);
        pr.ce_delivered += s.flow_ce_packets(h);
        if (s.flow_ecn_fallback(h)) ++pr.fallbacks;
        const std::uint64_t got = s.delivered_bytes(h);
        out.delivered_segments += got / spec.mss;
        d.add(gp);
        d.add(got);
        if (const transport::tcp_sender* snd = s.tcp_flow(h)) {
            if (snd->delivered_bytes() > got ||
                got > snd->delivered_bytes() + spec.max_cwnd + spec.mss)
                fail(out, where + ": flow " + std::to_string(h) +
                              " delivered bytes inconsistent with bytes sent");
        } else if (const transport::quic_sender* q = s.quic_flow(h)) {
            if (got > q->packets_sent() * spec.mss)
                fail(out, where + ": flow " + std::to_string(h) +
                              " delivered more bytes than it sent");
        }
    }
    d.add(pr.owd_ms);
    d.add(pr.retransmits);
    d.add(pr.ce_delivered);
}

// RLC drops and sampled queue depth of every bearer attached to `c` at run
// end (handed-over bearers carry their state into their new cell).
void collect_rlc(scenario::cell& c, run_outcome& out)
{
    ran::gnb& g = c.gnb();
    const int drbs = c.spec().separate_drbs_per_class ? 2 : 1;
    for (const ran::rnti_t ue : g.active_rntis())
        for (int drb = 1; drb <= drbs; ++drb)
            out.rlc_drops += g.rlc(ue, static_cast<ran::drb_id_t>(drb)).drops();
    for (std::size_t i = 0; i < g.num_ues(); ++i)
        for (const double v : c.rlc_queue_sdus(c.rnti_of(i)).raw()) out.rlc_queue_sdus.add(v);
}

void finish_point(run_outcome& out, const grid_point_result& pr, const digest& d)
{
    for (const double v : pr.owd_ms.raw()) out.owd_ms.add(v);
    out.goodput_mbps += pr.goodput_mbps;
    out.retransmits += pr.retransmits;
    out.ce_delivered += pr.ce_delivered;
    out.fallbacks += static_cast<std::uint64_t>(pr.fallbacks);
    out.point_digest.push_back(d.h);
    ++out.points;
}

// cell_mixed: one L4Span cell, 8 pedestrian UEs, each with a tcp-prague and
// a tcp-cubic download on separate DRBs; every fourth UE adds quic-prague.
run_outcome run_cell_mixed(const workload_args& w, bool traced)
{
    run_outcome out;
    phase_clock clock;
    scenario::cell_spec cell;
    cell.num_ues = w.tiny ? 4 : 8;
    cell.channel = "pedestrian";
    cell.cu = scenario::cu_mode::l4span;
    cell.separate_drbs_per_class = true;
    cell.seed = derive_seed(w.seed, 1);
    const sim::tick duration = sim::from_sec(w.tiny ? 2 : 100);

    auto s = std::make_unique<scenario::cell_scenario>(cell);
    std::vector<std::pair<int, scenario::flow_spec>> flows;
    for (int ue = 0; ue < cell.num_ues; ++ue) {
        std::vector<std::string> ccas{"prague", "cubic"};
        if (ue % 4 == 0) ccas.push_back("quic-prague");
        for (const auto& cca : ccas) {
            scenario::flow_spec f;
            f.cca = cca;
            f.ue = ue;
            flows.emplace_back(s->add_flow(f), f);
        }
    }
    std::unique_ptr<timed_hook> th;  // reset after the scenario that calls it
    if (traced) {
        th = std::make_unique<timed_hook>(*s->l4span_layer());
        s->gnb().set_cu_hook(th.get());
    }
    clock.start_run();
    s->run(duration);
    out.point_ns.push_back(clock.end_run());

    grid_point_result pr;
    digest d;
    collect_cell_flows(*s, flows, pr, out, d, "cell_mixed");
    out.events = s->loop().processed();
    out.slots = s->gnb().slots_elapsed();
    out.ue_slots = out.slots * static_cast<std::uint64_t>(cell.num_ues);
    collect_rlc(s->cell(), out);
    add_hook_counts(out, *s->l4span_layer(), th.get(), "cell_mixed");
    d.add(out.events);
    d.add(out.marks);
    finish_point(out, pr, d);
    s.reset();
    th.reset();
    clock.finish(out);
    return out;
}

// multicell_dense: 4 cells x 256 UEs on the mobile channel, one greedy
// tcp-prague flow per UE, X2 handovers at 0.1 per UE per second, sharded
// over `jobs` threads.
run_outcome run_multicell_dense(const workload_args& w, int jobs, bool traced)
{
    run_outcome out;
    phase_clock clock;
    scenario::topology_spec spec;
    spec.num_cells = w.tiny ? 2 : 4;
    spec.ues_per_cell = w.tiny ? 8 : 256;
    spec.cell.cu = scenario::cu_mode::l4span;
    spec.cell.channel = "mobile";
    spec.cell.seed = derive_seed(w.seed, 1);
    spec.jobs = jobs;
    const sim::tick duration = sim::from_sec(w.tiny ? 1 : 6);

    auto topo = std::make_unique<scenario::topology>(spec);
    std::vector<int> handles;
    const std::uint32_t mss = scenario::flow_spec{}.mss;
    for (int ue = 0; ue < topo->num_ues(); ++ue) {
        scenario::flow_spec f;
        f.cca = "prague";
        f.ue = ue;
        f.max_cwnd = 1536 * 1024;
        handles.push_back(topo->add_flow(f));
    }
    topo::mobility_config mob;
    mob.num_cells = spec.num_cells;
    mob.ues_per_cell = spec.ues_per_cell;
    mob.handovers_per_ue_per_sec = 0.1;
    mob.start = sim::from_ms(500);
    mob.end = duration;
    mob.seed = derive_seed(w.seed, 2);
    topo->apply(topo::mobility_model(mob).schedule());
    std::vector<std::unique_ptr<timed_hook>> hooks;
    if (traced) {
        for (int c = 0; c < topo->num_cells(); ++c) {
            scenario::cell& cl = topo->cell_at(c);
            hooks.push_back(std::make_unique<timed_hook>(*cl.l4span_layer()));
            cl.gnb().set_cu_hook(hooks.back().get());
        }
    }
    clock.start_run();
    topo->run(duration);
    out.point_ns.push_back(clock.end_run());
    out.hook_threads = std::min(jobs, topo->num_cells());

    grid_point_result pr;
    digest d;
    for (const int h : handles) {
        for (const double v : topo->owd_ms(h).raw()) pr.owd_ms.add(v);
        const double gp = topo->goodput_mbps(h);
        pr.goodput_mbps += gp;
        pr.retransmits += topo->flow_retransmits(h);
        const std::uint64_t got = topo->delivered_bytes(h);
        out.delivered_segments += got / mss;
        d.add(gp);
        d.add(got);
    }
    d.add(pr.owd_ms);
    d.add(pr.retransmits);
    out.events = topo->processed_events();
    for (int c = 0; c < topo->num_cells(); ++c) {
        scenario::cell& cl = topo->cell_at(c);
        out.slots += cl.gnb().slots_elapsed();
        collect_rlc(cl, out);
        add_hook_counts(out, *cl.l4span_layer(),
                        traced ? hooks[static_cast<std::size_t>(c)].get() : nullptr,
                        "multicell_dense cell " + std::to_string(c));
    }
    // Each UE is served by exactly one cell per slot and the cells tick in
    // lockstep, so UE-slots = slots of one cell x UEs.
    out.ue_slots = topo->cell_at(0).gnb().slots_elapsed() *
                   static_cast<std::uint64_t>(topo->num_ues());
    out.ho_started = topo->handovers_started();
    out.ho_completed = topo->handovers_completed();
    if (out.ho_completed > out.ho_started)
        fail(out, "multicell_dense: handovers_completed > handovers_started");
    d.add(out.events);
    d.add(out.marks);
    d.add(out.ho_started);
    d.add(out.ho_completed);
    finish_point(out, pr, d);
    topo.reset();
    hooks.clear();
    clock.finish(out);
    return out;
}

// The committed ecn_impairment scenario (full or --quick slice) with its
// cell seed derived from the benchmark seed.
scenario::scenario_spec impairment_spec(const workload_args& w)
{
    scenario::scenario_spec spec = scenario::builtin_scenario("ecn_impairment", w.tiny);
    spec.ecn_impairment.seed = derive_seed(w.seed, 1);
    spec.validate();
    return spec;
}

// impairment_grid: every point of the ecn_impairment grid, built exactly as
// run_scenario builds it. All points are set up first on this thread, then
// their run() calls fan out over grid_runner, then results are collected.
run_outcome run_impairment_grid(const workload_args& w, int jobs, bool traced)
{
    run_outcome out;
    phase_clock clock;
    const scenario::scenario_spec spec = impairment_spec(w);
    const scenario::ecn_impairment_family& fam = spec.ecn_impairment;

    struct point {
        std::unique_ptr<timed_hook> th;  // outlives the gNB that calls it
        std::unique_ptr<scenario::cell_scenario> s;
        std::vector<std::pair<int, scenario::flow_spec>> flows;
        std::string label;
    };
    std::vector<point> points;
    for (const auto& cca : fam.ccas)
        for (const auto& pr : fam.profiles)
            for (const bool cross : fam.cross_options) {
                scenario::cell_spec cell;
                cell.num_ues = fam.ues;
                cell.channel = "static";
                cell.cu = scenario::cu_mode::l4span;
                cell.seed = fam.seed;
                cell.bottleneck_bps = fam.bottleneck_bps;
                cell.bottleneck_aqm = fam.bottleneck_aqm;
                cell.impair_dl = pr.impair;
                cell.impair_dl.force_stage = true;
                cell.l4s.drop_non_ecn = pr.drop_non_ecn;
                if (cross) {
                    topo::cross_traffic_spec bg;
                    bg.model = "poisson";
                    bg.rate_bps = fam.cross_rate_bps;
                    cell.cross_traffic.push_back(bg);
                }
                point p;
                p.s = std::make_unique<scenario::cell_scenario>(cell);
                for (int u = 0; u < fam.ues; ++u) {
                    scenario::flow_spec f;
                    f.cca = cca.cca;
                    f.ue = u;
                    f.max_cwnd = 1536 * 1024;
                    p.flows.emplace_back(p.s->add_flow(f), f);
                }
                if (traced) {
                    p.th = std::make_unique<timed_hook>(*p.s->l4span_layer());
                    p.s->gnb().set_cu_hook(p.th.get());
                }
                p.label = "impairment_grid " + cca.label + "/" + pr.name +
                          (cross ? "/cross" : "");
                points.push_back(std::move(p));
            }

    scenario::grid_runner pool(jobs);
    out.grid_jobs = pool.jobs();
    out.hook_threads = pool.jobs();
    clock.start_run();
    out.point_ns = pool.map(points.size(), [&](std::size_t i) {
        const ns_t start = wall_now();
        points[i].s->run(spec.duration);
        return wall_now() - start;
    });
    clock.end_run();

    for (point& p : points) {
        scenario::cell_scenario& s = *p.s;
        grid_point_result pr;
        digest d;
        collect_cell_flows(s, p.flows, pr, out, d, p.label);
        pr.ce_applied = s.bottleneck_ce_marks() + s.l4span_layer()->marks();
        pr.cross_packets = s.cross_traffic_packets();
        out.bottleneck_marks += s.bottleneck_ce_marks();
        out.events += s.loop().processed();
        out.slots += s.gnb().slots_elapsed();
        out.ue_slots += s.gnb().slots_elapsed() * static_cast<std::uint64_t>(fam.ues);
        collect_rlc(s.cell(), out);
        add_hook_counts(out, *s.l4span_layer(), p.th.get(), p.label);
        add_impairment(out, s.impair_dl(), p.label + " dl");
        add_impairment(out, s.impair_ul(), p.label + " ul");
        d.add(pr.ce_applied);
        d.add(pr.cross_packets);
        d.add(static_cast<std::uint64_t>(pr.fallbacks));
        finish_point(out, pr, d);
        out.grid_points.push_back(std::move(pr));
        p.s.reset();
        p.th.reset();
    }
    clock.finish(out);
    return out;
}

run_outcome run_workload(const workload_args& w, int jobs, bool traced)
{
    if (w.name == "cell_mixed") return run_cell_mixed(w, traced);
    if (w.name == "multicell_dense") return run_multicell_dense(w, jobs, traced);
    if (w.name == "impairment_grid") return run_impairment_grid(w, jobs, traced);
    throw std::invalid_argument("unknown workload \"" + w.name +
                                "\" (valid: cell_mixed, multicell_dense, impairment_grid)");
}

int default_jobs(const std::string& workload)
{
    if (workload == "cell_mixed") return 1;
    if (workload == "multicell_dense") return std::min(4, host_cpus());
    return host_cpus();
}

// --- statistics and output ------------------------------------------------------

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Collects the run's verdict, manifest and metric samples; print() emits
// them as the last stdout line.
class report {
public:
    stats::json manifest = stats::json::object();

    void add(const std::string& name, const std::string& unit,
             const std::vector<double>& samples)
    {
        auto values = stats::json::array();
        for (const double v : samples) values.push(v);
        auto m = stats::json::object();
        m.set("unit", unit).set("samples", std::move(values));
        metrics_.set(name, std::move(m));
    }
    void add(const std::string& name, const std::string& unit, double value)
    {
        add(name, unit, std::vector<double>{value});
    }

    // Counts `out`'s points and invariant failures, and compares its
    // per-point digests against the reference run's.
    void account(const run_outcome& out, const run_outcome* reference,
                 const std::string& what)
    {
        attempted_ += out.points;
        std::vector<bool> bad(static_cast<std::size_t>(out.points), false);
        for (const auto& [point, f] : out.failures) {
            bad.at(static_cast<std::size_t>(point)) = true;
            note(what + ": " + f);
        }
        if (reference) {
            if (reference->point_digest.size() != out.point_digest.size()) {
                note(what + ": point count differs from the reference run");
                std::fill(bad.begin(), bad.end(), true);
            } else {
                for (std::size_t i = 0; i < out.point_digest.size(); ++i)
                    if (out.point_digest[i] != reference->point_digest[i]) {
                        bad[i] = true;
                        note(what + ": point " + std::to_string(i) +
                             " simulated outputs differ from the reference run");
                    }
            }
        }
        failed_ += static_cast<int>(std::count(bad.begin(), bad.end(), true));
    }
    void note(const std::string& failure)
    {
        if (failures_.size() < 20) failures_.push_back(failure);
        else if (failures_.size() == 20) failures_.push_back("(further failures omitted)");
        correct_ = false;
    }

    void print(const std::string& workload) const
    {
        auto failures = stats::json::array();
        for (const auto& f : failures_) failures.push(f);
        auto out = stats::json::object();
        out.set("workload", workload)
            .set("correct", correct_ && failed_ == 0)
            .set("attempted", attempted_)
            .set("failed", failed_)
            .set("failures", std::move(failures))
            .set("manifest", manifest)
            .set("metrics", metrics_);
        std::printf("%s\n", out.dump_compact().c_str());
        std::fflush(stdout);
    }

private:
    bool correct_ = true;
    int attempted_ = 0;
    int failed_ = 0;
    std::vector<std::string> failures_;
    stats::json metrics_ = stats::json::object();
};

// The simulated end-to-end metrics, from any run (they are deterministic).
void add_simulated(report& rep, const run_outcome& r)
{
    rep.add("owd_p50_ms", "ms", r.owd_ms.median());
    rep.add("owd_p99_ms", "ms", r.owd_ms.percentile(99));
    rep.add("goodput_mbps", "Mbit/s", r.goodput_mbps);
}

// End-to-end run: a reference execution at jobs 1 (warm-up and the
// jobs-1 / jobs-N identity check), then repeated executions at `jobs` until
// `seconds` of measurement have passed; host metrics are per-repeat samples.
void measure_end_to_end(report& rep, const workload_args& w, int jobs, double seconds)
{
    const run_outcome ref = run_workload(w, 1, false);
    rep.account(ref, nullptr, "reference run (jobs 1)");
    std::vector<double> setup, wall, cpu;
    const ns_t deadline = wall_now() + static_cast<ns_t>(seconds * 1e9);
    do {
        const run_outcome r = run_workload(w, jobs, false);
        rep.account(r, &ref, "repeat " + std::to_string(wall.size() + 1));
        setup.push_back(sec(r.setup_ns));
        wall.push_back(sec(r.wall_ns));
        cpu.push_back(sec(r.cpu_ns));
    } while (wall_now() < deadline || wall.size() < 3);
    rep.add("setup_s", "s", setup);
    rep.add("wall_s", "s", wall);
    rep.add("cpu_s", "s", cpu);
    rep.add("peak_rss_mb", "MB", peak_rss_mb());
    add_simulated(rep, ref);
}

// Traced run: the same reference execution, then alternating untraced and
// traced executions for `seconds`. Layer timings come from the traced
// executions; trace_overhead_pct is the ratio of the two median walls.
void measure_layers(report& rep, const workload_args& w, int jobs, double seconds)
{
    const hook_calibration cal = calibrate_hook();
    rep.manifest.set("hook_calibration_dl_ns", cal.dl_ns)
        .set("hook_calibration_ul_ns", cal.ul_ns)
        .set("hook_calibration_fb_ns", cal.fb_ns);

    const run_outcome ref = run_workload(w, 1, false);
    rep.account(ref, nullptr, "reference run (jobs 1)");
    std::vector<double> plain_wall, cpu_per_wall;
    std::vector<double> setup, wall, point_p50, point_max, busy, ns_event, ns_ue_slot, dl_ns,
        ul_ns, fb_ns, share;
    std::vector<std::pair<ns_t, ns_t>> run_collect;  // per traced execution
    run_outcome last;
    const ns_t deadline = wall_now() + static_cast<ns_t>(seconds * 1e9);
    do {
        const run_outcome p = run_workload(w, jobs, false);
        rep.account(p, &ref, "untraced repeat " + std::to_string(plain_wall.size() + 1));
        plain_wall.push_back(sec(p.wall_ns));
        cpu_per_wall.push_back(ratio(sec(p.cpu_ns), sec(p.wall_ns)));

        run_outcome t = run_workload(w, jobs, true);
        const std::string what = "traced repeat " + std::to_string(wall.size() + 1);
        rep.account(t, &ref, what);
        if (t.run_ns + t.collect_ns != t.wall_ns)
            rep.note(what + ": scenario.run_s + stats.collect_s != wall_s");
        const double net_hook_ns = static_cast<double>(t.dl.ns + t.ul.ns + t.fb.ns) -
                                   cal.dl_ns * static_cast<double>(t.dl.calls) -
                                   cal.ul_ns * static_cast<double>(t.ul.calls) -
                                   cal.fb_ns * static_cast<double>(t.fb.calls);
        const double run_capacity_ns =
            static_cast<double>(t.run_ns) * static_cast<double>(t.hook_threads);
        if (static_cast<double>(t.dl.ns + t.ul.ns + t.fb.ns) > run_capacity_ns)
            rep.note(what + ": CU hook time exceeds scenario.run_s x hook threads");

        setup.push_back(sec(t.setup_ns));
        run_collect.emplace_back(t.run_ns, t.collect_ns);
        wall.push_back(sec(t.wall_ns));
        std::vector<double> pts;
        double busy_ns = 0;
        for (const ns_t v : t.point_ns) {
            pts.push_back(sec(v));
            busy_ns += static_cast<double>(v);
        }
        point_p50.push_back(median(pts));
        point_max.push_back(*std::max_element(pts.begin(), pts.end()));
        busy.push_back(busy_ns / (static_cast<double>(t.run_ns) * t.grid_jobs));
        ns_event.push_back(ratio(static_cast<double>(t.run_ns), static_cast<double>(t.events)));
        ns_ue_slot.push_back(
            ratio(static_cast<double>(t.run_ns), static_cast<double>(t.ue_slots)));
        const auto per_call = [](const span_stat& s, double calib) {
            return s.calls ? static_cast<double>(s.ns) / static_cast<double>(s.calls) - calib
                           : 0.0;
        };
        dl_ns.push_back(per_call(t.dl, cal.dl_ns));
        ul_ns.push_back(per_call(t.ul, cal.ul_ns));
        fb_ns.push_back(per_call(t.fb, cal.fb_ns));
        share.push_back(net_hook_ns / run_capacity_ns);
        last = std::move(t);
    } while (wall_now() < deadline || wall.size() < 2);

    rep.add("scenario.setup_s", "s", setup);
    // From the traced execution with the median wall, so the two add up to
    // that wall exactly.
    std::sort(run_collect.begin(), run_collect.end(), [](const auto& a, const auto& b) {
        return a.first + a.second < b.first + b.second;
    });
    const auto [mid_run, mid_collect] = run_collect[run_collect.size() / 2];
    rep.add("scenario.run_s", "s", sec(mid_run));
    rep.add("stats.collect_s", "s", sec(mid_collect));
    rep.add("scenario.grid.point_s_p50", "s", point_p50);
    rep.add("scenario.grid.point_s_max", "s", point_max);
    rep.add("scenario.grid.busy_frac", "ratio", busy);
    rep.add("sim.events", "count", static_cast<double>(last.events));
    rep.add("sim.ns_per_event", "ns", ns_event);
    rep.add("sim.shard.speedup", "ratio", ratio(sec(ref.wall_ns), median(plain_wall)));
    rep.add("sim.shard.cpu_per_wall", "ratio", cpu_per_wall);
    rep.add("ran.slots", "count", static_cast<double>(last.slots));
    rep.add("ran.ue_slots", "count", static_cast<double>(last.ue_slots));
    rep.add("ran.ns_per_ue_slot", "ns", ns_ue_slot);
    rep.add("ran.rlc.drops", "count", static_cast<double>(last.rlc_drops));
    rep.add("ran.rlc.queue_sdus_p99", "count",
            last.rlc_queue_sdus.empty() ? 0.0 : last.rlc_queue_sdus.percentile(99));
    rep.add("core.dl_calls", "count", static_cast<double>(last.dl.calls));
    rep.add("core.ul_calls", "count", static_cast<double>(last.ul.calls));
    rep.add("core.fb_calls", "count", static_cast<double>(last.fb.calls));
    rep.add("core.dl_ns", "ns", dl_ns);
    rep.add("core.ul_ns", "ns", ul_ns);
    rep.add("core.fb_ns", "ns", fb_ns);
    rep.add("core.share", "ratio", share);
    rep.add("core.mark_frac", "ratio",
            ratio(static_cast<double>(last.marks), static_cast<double>(last.dl_events)));
    rep.add("core.drops", "count", static_cast<double>(last.core_drops));
    rep.add("aqm.bottleneck_marks", "count", static_cast<double>(last.bottleneck_marks));
    const double segs = static_cast<double>(last.delivered_segments);
    rep.add("transport.retx_frac", "ratio", ratio(static_cast<double>(last.retransmits), segs));
    rep.add("transport.ce_frac", "ratio", ratio(static_cast<double>(last.ce_delivered), segs));
    rep.add("transport.ecn_fallback_flows", "count", static_cast<double>(last.fallbacks));
    rep.add("topo.impair.input", "count", static_cast<double>(last.impair_input));
    rep.add("topo.impair.lost", "count", static_cast<double>(last.impair_lost));
    rep.add("topo.impair.stripped", "count", static_cast<double>(last.impair_stripped));
    rep.add("topo.handovers_started", "count", static_cast<double>(last.ho_started));
    rep.add("topo.handovers_completed", "count", static_cast<double>(last.ho_completed));
    rep.add("trace_overhead_pct", "%", (median(wall) / median(plain_wall) - 1.0) * 100.0);
}

// Self-test: the impairment grid's per-point simulated outputs must equal
// what scenario::run_scenario reports for the same scenario.
void check_against_scenario(report& rep, const workload_args& w, int jobs)
{
    const run_outcome mine = run_workload(w, jobs, false);
    rep.account(mine, nullptr, "impairment_grid");
    stats::json summary;
    scenario::bench_args args;
    args.jobs = jobs;
    std::fflush(stdout);
    const int saved = dup(STDOUT_FILENO);  // run_scenario prints its tables
    dup2(STDERR_FILENO, STDOUT_FILENO);
    const int rc = scenario::run_scenario(impairment_spec(w), args, &summary);
    std::fflush(stdout);
    dup2(saved, STDOUT_FILENO);
    close(saved);
    if (rc != 0) rep.note("run_scenario exited with " + std::to_string(rc));
    const stats::json* pts = summary.find("points");
    if (!pts || pts->elements().size() != mine.grid_points.size()) {
        rep.note("run_scenario reports a different number of points");
        return;
    }
    const auto num = [](const stats::json& o, const char* key) {
        const stats::json* v = o.find(key);
        return v ? v->as_number() : std::nan("");
    };
    for (std::size_t i = 0; i < mine.grid_points.size(); ++i) {
        const stats::json& p = pts->elements()[i];
        const grid_point_result& m = mine.grid_points[i];
        const stats::json* box = p.find("owd_ms");
        const bool same =
            box && num(*box, "p10") == m.owd_ms.percentile(10) &&
            num(*box, "p50") == m.owd_ms.median() &&
            num(*box, "p90") == m.owd_ms.percentile(90) &&
            num(*box, "count") == static_cast<double>(m.owd_ms.count()) &&
            num(p, "owd_p99_ms") == m.owd_ms.percentile(99) &&
            num(p, "goodput_mbps") == m.goodput_mbps &&
            num(p, "retransmits") == static_cast<double>(m.retransmits) &&
            num(p, "ce_applied") == static_cast<double>(m.ce_applied) &&
            num(p, "ce_delivered") == static_cast<double>(m.ce_delivered) &&
            num(p, "ecn_fallbacks") == static_cast<double>(m.fallbacks) &&
            num(p, "cross_packets") == static_cast<double>(m.cross_packets);
        if (!same) rep.note("point " + std::to_string(i) + " differs from run_scenario");
    }
    add_simulated(rep, mine);
}

[[noreturn]] void usage(const std::string& why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--size full|tiny]\n"
                 "       perfbench --check-scenario --seed N [--size full|tiny]\n",
                 why.c_str());
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv)
{
    workload_args w;
    double seconds = 10;
    bool traced = false, check = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload") w.name = value();
            else if (a == "--seed") w.seed = std::stoull(value());
            else if (a == "--seconds") seconds = std::stod(value());
            else if (a == "--trace") traced = std::stoi(value()) != 0;
            else if (a == "--size") {
                const std::string s = value();
                if (s != "full" && s != "tiny") usage("--size is full or tiny");
                w.tiny = s == "tiny";
            } else if (a == "--check-scenario") check = true;
            else usage("unknown argument " + a);
        } catch (const std::logic_error&) {
            usage("bad value for " + a);
        }
    }
    if (check) w.name = "impairment_grid";
    if (w.name.empty()) usage("--workload is required");

    const int jobs = default_jobs(w.name);
    report rep;
    rep.manifest.set("workload", w.name)
        .set("seed", w.seed)
        .set("seconds", seconds)
        .set("size", w.tiny ? "tiny" : "full")
        .set("trace", traced)
        .set("jobs", jobs)
        .set("nproc", host_cpus())
        .set("build_type", PB_BUILD_TYPE)
        .set("cxx_flags", PB_CXX_FLAGS)
        .set("compiler", PB_COMPILER);
    try {
        if (check) check_against_scenario(rep, w, jobs);
        else if (traced) measure_layers(rep, w, jobs, seconds);
        else measure_end_to_end(rep, w, jobs, seconds);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    rep.print(w.name);
    return 0;
}
