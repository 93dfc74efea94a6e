// JSON scenario schema ("l4span-scenario-v1"): the data-driven face of the
// experiment harnesses. A scenario file names one of three experiment
// *families* — each a parameterized grid — plus its parameter block:
//
//   sweep           single-cell grid: a base cell_spec (any bottleneck AQM
//                   incl. "wred", impairments, cross traffic, L4Span knobs)
//                   and flow list, crossed over named axes whose values
//                   override parts of it (Fig. 9/13/16/17/19/24, or any
//                   custom grid)
//   ecn_impairment  adversarial wired path: impairment profile x CCA x
//                   cross-traffic through a core bottleneck AQM
//   fault_chaos     multi-cell fault injection: fault class x transport
//
// Parsing is strict: unknown keys, type mismatches and out-of-range values
// throw scenario_error naming the offending key and its source line.
// export_scenario() is the exact inverse on the supported surface — every
// key is always written, in a fixed order, so export -> parse -> export is
// the identity on bytes (pinned by tests/test_scenario_fuzz.cpp), and a
// bench's compiled-in scenario exported via --export-scenario reproduces
// the bench's output byte-for-byte when run back through `l4span_run`
// (pinned by tests/test_scenario_spec.cpp).
//
// Schema reference: docs/SCENARIOS.md.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/cell.h"
#include "stats/json.h"

namespace l4span::scenario {

inline constexpr const char* k_scenario_schema = "l4span-scenario-v1";

// Scenario load/validation failure. The message names the file (or origin
// label), the offending key path and — for parsed input — its 1-based
// source line, so a typo in a 300-line scenario is a one-glance fix.
class scenario_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

// --- family parameter blocks -----------------------------------------------

// Single-cell grid: every point runs `flows` on `cell` after each axis's
// chosen value has overridden parts of both. The points are the cross
// product of the axes, first axis outermost.
struct sweep_family {
    struct flow {
        flow_spec spec;
        int count = 1;  // replicas on UEs spec.ue, spec.ue+1, ...
    };
    // `label` is an object of scalars copied into the point's output
    // record; `set` is a partial {"cell": ..., "flows": [...]} override in
    // scenario-file form (objects keep unspecified members, arrays of
    // objects merge by index).
    struct value {
        stats::json label = stats::json::object();
        stats::json set = stats::json::object();
    };
    struct axis {
        std::string name;
        std::vector<value> values;
    };
    cell_spec cell;
    std::vector<flow> flows;
    std::vector<axis> axes;
    // Axis whose first value is the reference: the other points gain
    // owd_reduction_pct / rtt_reduction_pct against the point that picks
    // the first value of this axis and the same values elsewhere. "" = none.
    std::string baseline;
};

// One expanded sweep point: the overridden cell and flows, the merged
// labels, and the index of its baseline point (-1 when it has none).
struct sweep_point {
    cell_spec cell;
    std::vector<sweep_family::flow> flows;
    stats::json label = stats::json::object();
    long baseline = -1;
};

// Expands a sweep into its points, applying each axis's `set` in axis
// order. Throws scenario_error naming a bad override's key path (and its
// source line when the sweep was parsed).
std::vector<sweep_point> sweep_points(const sweep_family& sweep);

// Adversarial wired-path grid (bench_ecn_impairment).
struct ecn_impairment_family {
    struct profile {
        std::string name;
        bool drop_non_ecn = false;  // arm L4Span's drop-based fallback
        topo::impairment_spec impair;
    };
    struct transport {
        std::string cca;    // flow_spec CCA name (prague, quic-prague, ...)
        std::string label;  // row label (tcp-prague, ...)
    };
    std::uint64_t seed = 71;
    int ues = 4;
    double bottleneck_bps = 80e6;
    std::string bottleneck_aqm = "dualpi2";
    double cross_rate_bps = 30e6;
    std::vector<bool> cross_options{false, true};
    std::vector<transport> ccas;
    std::vector<profile> profiles;
};

// Multi-cell fault-injection grid (bench_fault_chaos).
struct fault_chaos_family {
    struct profile {
        std::string name;
        double rlf_per_ue_per_sec = 0.0;
        double ho_failure_per_ue_per_sec = 0.0;
        double outages_per_cell_per_sec = 0.0;
        double flaps_per_cell_per_sec = 0.0;
    };
    struct transport {
        std::string cca;
        bool media = false;  // frame-paced interactive source on top
    };
    int num_cells = 3;
    int ues_per_cell = 3;
    std::uint64_t cell_seed = 41;
    double wired_bps = 100e6;
    std::uint64_t fault_seed = 23;
    double fault_start_ms = 800.0;
    double fault_end_margin_ms = 500.0;  // leave room to observe recovery
    std::vector<profile> profiles;
    std::vector<transport> transports;
};

// --- the scenario document --------------------------------------------------

struct scenario_spec {
    std::string figure;     // summary JSON "figure" tag (fig09, ...)
    std::string title;      // banner line
    std::string paper_ref;  // banner "reproduces:" line
    std::string family;     // which block below is active
    bool quick = false;     // documents which slice this file describes
    sim::tick duration = 0; // per-grid-point simulated time

    sweep_family sweep;
    ecn_impairment_family ecn_impairment;
    fault_chaos_family fault_chaos;

    // Semantic validation beyond parse-time binding (non-empty axes,
    // sub-spec consistency; a sweep builds and checks every point). Throws
    // scenario_error. parse_scenario_text runs this; call it yourself on
    // programmatically built specs.
    void validate() const;
};

// Parses + validates a scenario document. `origin` labels errors (a file
// path, or e.g. "<builtin>"). Throws scenario_error on malformed JSON,
// unknown/duplicate keys, type mismatches or out-of-range values, always
// naming the offending key and source line.
scenario_spec parse_scenario_text(std::string_view text, const std::string& origin);

// read_text_file + parse_scenario_text. Throws scenario_error (including
// for an unreadable path).
scenario_spec load_scenario_file(const std::string& path);

// Serializes `spec` to its scenario document. Writes every supported key
// in fixed order: parse(export(s).dump()) reproduces `s` exactly, and
// export(parse(text)) reproduces `text` for any export-produced `text`.
stats::json export_scenario(const scenario_spec& spec);

// export_scenario(spec).dump() -> `path`; "wrote <path>" on stderr.
// Returns 0, or 1 on I/O failure (mirrors benchutil::finish). Benches use
// this behind --export-scenario.
int write_scenario_file(const std::string& path, const scenario_spec& spec);

}  // namespace l4span::scenario
