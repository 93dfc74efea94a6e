// Fuzz/property campaign for the scenario schema parser ("fuzz" CTest
// label). parse_scenario_text must never crash, hang or throw anything but
// scenario_error, no matter the input: byte soup, truncations of a valid
// document, random single-byte mutations, duplicate keys, absurd values.
// Diagnostics must name the offending key, and export -> parse -> export
// must be the exact identity on bytes — including for a programmatically
// built sweep exercising the WRED surface, which no compiled-in bench
// produces.
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.h"
#include "scenario/scenario_run.h"
#include "scenario/scenario_spec.h"
#include "stats/json.h"

using namespace l4span;
using scenario::builtin_scenario;
using scenario::export_scenario;
using scenario::parse_scenario_text;
using scenario::scenario_error;
using scenario::scenario_spec;

namespace {

const char* const k_builtins[] = {"fig09", "fig13", "fig16", "fig17",
                                  "fig19", "fig24", "ecn_impairment", "fault_chaos"};

// parse() may accept (returning a spec) or reject with scenario_error;
// any other exception type — or a crash — fails the campaign.
void must_accept_or_diagnose(const std::string& text, const char* what)
{
    try {
        (void)parse_scenario_text(text, "<fuzz>");
    } catch (const scenario_error&) {
        // expected failure mode
    } catch (...) {
        FAIL() << what << ": non-scenario_error escaped for input: "
               << text.substr(0, 120);
    }
}

// A sweep over seeds on the WRED dual-queue bottleneck — the schema
// surface no bench binary can produce.
scenario_spec wred_sweep_spec()
{
    scenario_spec s;
    s.figure = "wred_demo";
    s.title = "WRED dual-queue cell";
    s.paper_ref = "scenario-engine demo (no paper figure)";
    s.family = "sweep";
    s.quick = true;
    s.duration = sim::from_ms(1500);
    scenario::sweep_family::axis seeds{"seed", {}};
    for (const int seed : {7, 8}) {
        auto label = stats::json::object();
        label.set("seed", seed);
        auto cell = stats::json::object();
        cell.set("seed", seed);
        auto set = stats::json::object();
        set.set("cell", cell);
        seeds.values.push_back({label, set});
    }
    s.sweep.axes = {seeds};
    auto& cell = s.sweep.cell;
    cell.num_ues = 4;
    cell.bottleneck_aqm = "wred";
    cell.wred.l4s = {4 * 1514, 32 * 1514, 1.0};
    cell.wred.classic = {16 * 1514, 128 * 1514, 0.08};
    cell.wred.ecn_drop_bytes = 1 << 20;
    cell.wred.l4s_weight = 8;
    scenario::sweep_family::flow f;
    f.spec.cca = "prague";
    f.spec.ue = 0;
    f.count = 2;
    s.sweep.flows.push_back(f);
    scenario::sweep_family::flow g;
    g.spec.cca = "cubic";
    g.spec.ue = 2;
    g.count = 1;
    s.sweep.flows.push_back(g);
    return s;
}

// Copy of `node` whose `target`-th object member (pre-order over the whole
// tree, counted in `n`) holds a value of the wrong JSON type. `at` is the
// schema key path of `node`; `path` receives the replaced member's path:
// "$.<key>" at top level, "<family>.<key>..." below it.
stats::json with_wrong_type(const stats::json& node, const std::string& at, int& n,
                            int target, std::string& path)
{
    if (node.is_array()) {
        auto out = stats::json::array();
        for (std::size_t i = 0; i < node.elements().size(); ++i)
            out.push(with_wrong_type(node.elements()[i],
                                     at + "[" + std::to_string(i) + "]", n, target,
                                     path));
        return out;
    }
    if (!node.is_object()) return node;
    auto out = stats::json::object();
    for (const auto& [key, value] : node.members()) {
        const std::string key_path = (at.empty() ? "$" : at) + "." + key;
        if (n++ == target) {
            path = key_path;
            out.set(key, value.is_string() ? stats::json(0) : stats::json("wrong"));
        } else {
            out.set(key, with_wrong_type(value, at.empty() ? key : key_path, n,
                                         target, path));
        }
    }
    return out;
}

}  // namespace

TEST(scenario_fuzz, byte_soup_never_crashes)
{
    sim::rng rng(0xfeedbeef);
    for (int iter = 0; iter < 400; ++iter) {
        std::string soup;
        const int len = static_cast<int>(rng.uniform_int(0, 300));
        soup.reserve(static_cast<std::size_t>(len));
        for (int i = 0; i < len; ++i)
            soup.push_back(static_cast<char>(rng.uniform_int(0, 255)));
        must_accept_or_diagnose(soup, "byte soup");
    }
}

TEST(scenario_fuzz, structured_soup_never_crashes)
{
    // Soup biased toward JSON punctuation and schema vocabulary: reaches
    // deeper parser states than uniform bytes.
    static const char* frags[] = {
        "{", "}", "[", "]", ":", ",", "\"", "true", "false", "null",
        "1e308", "-0.0", "1e-308", "9223372036854775807",
        "\"schema\"", "\"l4span-scenario-v1\"", "\"family\"", "\"sweep\"",
        "\"duration_s\"", "\"cell\"", "\"wred\"", "\"flows\"", "\"axes\"",
        "\"values\"", "\"label\"", "\"set\"", "\\u0000",
    };
    sim::rng rng(0xc0ffee);
    for (int iter = 0; iter < 400; ++iter) {
        std::string soup;
        const int n = static_cast<int>(rng.uniform_int(1, 40));
        for (int i = 0; i < n; ++i) {
            soup += frags[rng.uniform_int(
                0, static_cast<std::int64_t>(std::size(frags)) - 1)];
            if (rng.bernoulli(0.3)) soup += ' ';
        }
        must_accept_or_diagnose(soup, "structured soup");
    }
}

TEST(scenario_fuzz, every_truncation_of_valid_export_diagnosed)
{
    const std::string full =
        export_scenario(builtin_scenario("fig09", true)).dump();
    // Cuts inside trailing whitespace still leave a complete document; every
    // cut before the closing brace must be diagnosed.
    const std::size_t last_brace = full.find_last_of('}');
    ASSERT_NE(last_brace, std::string::npos);
    for (std::size_t cut = 0; cut <= last_brace; ++cut) {
        try {
            (void)parse_scenario_text(full.substr(0, cut), "<truncated>");
            FAIL() << "truncation at byte " << cut << " must not parse";
        } catch (const scenario_error&) {
        } catch (...) {
            FAIL() << "non-scenario_error at truncation byte " << cut;
        }
    }
}

TEST(scenario_fuzz, single_byte_mutations_never_crash)
{
    const std::string full =
        export_scenario(builtin_scenario("ecn_impairment", true)).dump();
    sim::rng rng(99);
    for (int iter = 0; iter < 600; ++iter) {
        std::string mut = full;
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(mut.size()) - 1));
        mut[pos] = static_cast<char>(rng.uniform_int(0, 255));
        must_accept_or_diagnose(mut, "single-byte mutation");
    }
}

TEST(scenario_fuzz, duplicate_key_diagnosed_with_name_and_line)
{
    std::string text = export_scenario(builtin_scenario("fig16", true)).dump();
    const std::string needle = "\"seed\":";
    const auto pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos);
    text.insert(pos, "\"seed\": 1, ");
    try {
        parse_scenario_text(text, "<dup>");
        FAIL() << "duplicate key must be rejected";
    } catch (const scenario_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("seed"), std::string::npos) << msg;
        EXPECT_NE(msg.find("line"), std::string::npos) << msg;
    }
}

TEST(scenario_fuzz, absurd_values_diagnosed_with_key)
{
    // Each case: a valid fig09 export with one value replaced by something
    // absurd; the diagnostic must carry the key name.
    const std::string base =
        export_scenario(builtin_scenario("fig09", true)).dump();
    struct edit {
        const char* needle;
        const char* replacement;
        const char* key_in_msg;
    };
    // The first match of each needle: base cell and flow keys come before
    // the axes, so "num_ues": 16, "count": 16, "seed": 1272 and "cu": "none"
    // land inside an axis value's override.
    const edit edits[] = {
        {"\"duration_s\": 6", "\"duration_s\": -5", "duration_s"},
        {"\"duration_s\": 6", "\"duration_s\": 1e9", "duration_s"},
        {"\"seed\": 1272", "\"seed\": 1e30", "set.cell.seed"},
        {"\"num_ues\": 16", "\"num_ues\": 0", "set.cell.num_ues"},
        {"\"count\": 16", "\"count\": 0", "set.flows[0].count"},
        {"\"cu\": \"none\"", "\"cu\": \"off\"", "set.cell.cu"},
        {"\"rlc_queue_sdus\": 16384", "\"rlc_queue_sdus\": -3", "rlc_queue_sdus"},
        {"\"cca\": \"prague\"", "\"cca\": 42", "flows[0].cca"},
        {"\"wired_owd_ms\": 19", "\"wired_owd_ms\": \"fast\"", "wired_owd_ms"},
        {"\"baseline\": \"l4span\"", "\"baseline\": \"l4spam\"", "baseline"},
        // The first axis's values emptied (its old list parks under a key
        // the parser never reaches).
        {"\"values\": [", "\"values\": [], \"v\": [", "axes[0].values"},
    };
    for (const auto& e : edits) {
        SCOPED_TRACE(e.replacement);
        std::string text = base;
        const auto pos = text.find(e.needle);
        ASSERT_NE(pos, std::string::npos) << e.needle;
        text.replace(pos, std::string(e.needle).size(), e.replacement);
        try {
            parse_scenario_text(text, "<absurd>");
            FAIL() << "must reject " << e.replacement;
        } catch (const scenario_error& ex) {
            EXPECT_NE(std::string(ex.what()).find(e.key_in_msg),
                      std::string::npos)
                << ex.what();
        }
    }
}

TEST(scenario_fuzz, export_parse_export_exact_for_all_specs)
{
    // Builtins in both forms plus the WRED sweep: export must be a fixpoint
    // of parse ∘ export on bytes.
    std::vector<scenario_spec> specs;
    for (const char* name : k_builtins) {
        specs.push_back(builtin_scenario(name, false));
        specs.push_back(builtin_scenario(name, true));
    }
    specs.push_back(wred_sweep_spec());
    for (const auto& spec : specs) {
        SCOPED_TRACE(spec.figure);
        const std::string once = export_scenario(spec).dump();
        const auto reparsed = parse_scenario_text(once, "<rt>");
        const std::string twice = export_scenario(reparsed).dump();
        EXPECT_EQ(once, twice);
    }
}

TEST(scenario_fuzz, wred_spec_parses_back_to_wred_queue_params)
{
    const auto spec = wred_sweep_spec();
    const auto reparsed =
        parse_scenario_text(export_scenario(spec).dump(), "<wred>");
    const auto& w = reparsed.sweep.cell.wred;
    EXPECT_EQ(reparsed.sweep.cell.bottleneck_aqm, "wred");
    EXPECT_EQ(w.l4s.min_bytes, 4u * 1514);
    EXPECT_EQ(w.l4s.max_bytes, 32u * 1514);
    EXPECT_DOUBLE_EQ(w.classic.max_p, 0.08);
    EXPECT_EQ(w.ecn_drop_bytes, std::size_t{1} << 20);
    EXPECT_EQ(w.l4s_weight, 8);
}

TEST(scenario_fuzz, every_key_type_error_names_key_path_and_line)
{
    // Every object member of every builtin export and of the WRED example,
    // in turn given a value of the wrong JSON type: the diagnostic must
    // name that member's full key path and its source line.
    std::vector<stats::json> docs;
    for (const char* name : k_builtins)
        docs.push_back(export_scenario(builtin_scenario(name, false)));
    std::string wred_text;
    ASSERT_TRUE(stats::read_text_file(
        std::string(L4SPAN_SOURCE_ROOT) + "/examples/scenarios/wred_cell_flows.json",
        wred_text));
    docs.push_back(stats::json::parse(wred_text));
    int probed = 0;
    for (const auto& doc : docs) {
        int members = 0;
        std::string path;
        (void)with_wrong_type(doc, "", members, -1, path);
        for (int target = 0; target < members; ++target) {
            int n = 0;
            const std::string text =
                with_wrong_type(doc, "", n, target, path).dump();
            SCOPED_TRACE(path);
            ++probed;
            try {
                (void)parse_scenario_text(text, "<typed>");
                ADD_FAILURE() << "wrong-typed value accepted";
            } catch (const scenario_error& e) {
                const std::string msg = e.what();
                EXPECT_NE(msg.find("\"" + path + "\""), std::string::npos) << msg;
                EXPECT_NE(msg.find("(line "), std::string::npos) << msg;
            }
        }
    }
    // Members per document: fig09 179, fig13 125, fig16 126, fig17 124,
    // fig19 158, fig24 162, ecn_impairment 136, fault_chaos 53, WRED 117.
    EXPECT_EQ(probed, 1180);
}

TEST(scenario_fuzz, wred_partial_profile_keeps_config_defaults)
{
    // Keys omitted from a nested object keep the struct's defaults: a
    // partial wred.l4s ramp must not collapse min/max to 0 (which would mark
    // every L4S packet from an empty queue).
    auto spec = wred_sweep_spec();
    spec.sweep.cell.wred = aqm::wred_dualq_config{};
    std::string text = export_scenario(spec).dump();
    const std::string needle = "\"l4s\": {";
    const auto from = text.find(needle);
    ASSERT_NE(from, std::string::npos);
    const auto to = text.find('}', from);
    text.replace(from, to + 1 - from, "\"l4s\": {\"max_p\": 0.5}");
    const auto parsed = parse_scenario_text(text, "<partial>");
    const auto& l4s = parsed.sweep.cell.wred.l4s;
    EXPECT_EQ(l4s.min_bytes, 12112u);
    EXPECT_EQ(l4s.max_bytes, 96896u);
    EXPECT_DOUBLE_EQ(l4s.max_p, 0.5);
}
