// Conformance suite for the scenario engine (ISSUE: schema-driven
// experiment harness). Pins the three load-bearing properties:
//
//   1. export -> parse -> export is the identity on bytes, for every
//      builtin scenario in both full and --quick form;
//   2. running a builtin through the scenario engine and running its
//      exported JSON back through parse + run_scenario produces
//      byte-identical stdout and JSON summaries — the bench binary and
//      `l4span_run` are thin wrappers over exactly these two calls, so
//      this is the bench-vs-driver byte-identity claim, in-process;
//   3. results are independent of --jobs (1 vs 4 on a scenario file).
//
// Plus: file-path round-trip via write_scenario_file/load_scenario_file,
// validation diagnostics naming the offending key and source line, and the
// sweep family's expansion rules (axis order, override merging, labels,
// baseline).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "scenario/grid_runner.h"
#include "scenario/scenario_run.h"
#include "scenario/scenario_spec.h"
#include "stats/json.h"

using namespace l4span;
using scenario::bench_args;
using scenario::builtin_scenario;
using scenario::export_scenario;
using scenario::parse_scenario_text;
using scenario::run_scenario;
using scenario::scenario_error;
using scenario::scenario_spec;

namespace {

// Runs a spec with stdout captured; returns {stdout bytes, summary dump}.
struct run_output {
    std::string out;
    std::string summary;
};

run_output run_captured(const scenario_spec& spec, int jobs)
{
    bench_args args;
    args.jobs = jobs;
    args.quick = spec.quick;
    stats::json summary;
    testing::internal::CaptureStdout();
    const int rc = run_scenario(spec, args, &summary);
    run_output r;
    r.out = testing::internal::GetCapturedStdout();
    r.summary = summary.dump();
    EXPECT_EQ(rc, 0);
    return r;
}

const char* k_builtins[] = {"fig09", "fig13", "fig16", "fig17",
                            "fig19", "fig24", "ecn_impairment", "fault_chaos"};

// A small sweep document: one base cell and two flows, a 2-value and a
// 3-value axis. `axes` and `extra` are spliced in verbatim.
std::string sweep_doc(const std::string& axes, const std::string& extra = "")
{
    return R"({
  "schema": "l4span-scenario-v1",
  "figure": "t",
  "title": "t",
  "paper_ref": "t",
  "quick": true,
  "duration_s": 0.2,
  "family": "sweep",
  "sweep": {
    "cell": {"num_ues": 4, "wred": {"l4s": {"min_bytes": 1000, "max_bytes": 9000}}},
    "flows": [{"cca": "prague", "count": 2}, {"cca": "cubic", "ue": 2}],
    "axes": )" + axes + extra + R"(
  }
})";
}

const std::string k_two_axes = R"([
      {"name": "cu", "values": [
        {"label": {"l4span": false}, "set": {"cell": {"cu": "none"}}},
        {"label": {"l4span": true}, "set": {}}]},
      {"name": "seed", "values": [
        {"label": {"seed": 1}, "set": {"cell": {"seed": 1}}},
        {"label": {"seed": 2}, "set": {"cell": {"seed": 2}}},
        {"label": {"seed": 3}, "set": {"cell": {"seed": 3}}}]}])";

// The message of the scenario_error parsing `text` throws ("" if none).
std::string parse_error(const std::string& text)
{
    try {
        parse_scenario_text(text, "<sweep>");
    } catch (const scenario_error& e) {
        return e.what();
    }
    return "";
}

}  // namespace

TEST(scenario_spec, export_parse_export_is_identity_for_builtins)
{
    for (const char* name : k_builtins) {
        for (bool quick : {false, true}) {
            SCOPED_TRACE(std::string(name) + (quick ? " --quick" : ""));
            const auto spec = builtin_scenario(name, quick);
            const std::string once = export_scenario(spec).dump();
            const auto reparsed = parse_scenario_text(once, "<roundtrip>");
            EXPECT_EQ(export_scenario(reparsed).dump(), once);
        }
    }
    // Every committed scenario file is itself an export: it must re-export
    // to its own bytes, and the bench-derived ones must equal the bench's
    // compiled-in scenario.
    struct bench_file {
        const char* stem;
        const char* builtin;
        bool quick;
    };
    const bench_file bench_files[] = {{"fig09_quick", "fig09", true},
                                      {"fig16", "fig16", false},
                                      {"ecn_impairment", "ecn_impairment", false},
                                      {"fault_chaos_quick", "fault_chaos", true}};
    const std::filesystem::path dir =
        std::filesystem::path(L4SPAN_SOURCE_ROOT) / "examples" / "scenarios";
    int files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".json") continue;
        SCOPED_TRACE(entry.path().string());
        ++files;
        std::string text;
        ASSERT_TRUE(stats::read_text_file(entry.path().string(), text));
        const auto spec = parse_scenario_text(text, entry.path().string());
        EXPECT_EQ(export_scenario(spec).dump(), text);
        for (const auto& b : bench_files) {
            if (entry.path().stem() != b.stem) continue;
            EXPECT_EQ(export_scenario(builtin_scenario(b.builtin, b.quick)).dump(),
                      text);
        }
    }
    EXPECT_GE(files, 5);
}

// The bench binaries call builtin_scenario() + run_scenario(); l4span_run
// calls parse + run_scenario(). Equal output here means a bench and its
// exported scenario file produce byte-identical stdout and summaries.
TEST(scenario_spec, builtin_and_reparsed_export_run_byte_identical)
{
    for (const char* name : k_builtins) {
        SCOPED_TRACE(name);
        const auto spec = builtin_scenario(name, /*quick=*/true);
        const auto reparsed =
            parse_scenario_text(export_scenario(spec).dump(), "<export>");
        const auto a = run_captured(spec, /*jobs=*/2);
        const auto b = run_captured(reparsed, /*jobs=*/2);
        EXPECT_EQ(a.out, b.out);
        EXPECT_EQ(a.summary, b.summary);
        EXPECT_FALSE(a.out.empty());
        EXPECT_NE(a.summary.find("\"figure\""), std::string::npos);
    }
}

TEST(scenario_spec, results_independent_of_jobs)
{
    const auto spec = builtin_scenario("fig09", /*quick=*/true);
    const auto serial = run_captured(spec, /*jobs=*/1);
    const auto sharded = run_captured(spec, /*jobs=*/4);
    EXPECT_EQ(serial.out, sharded.out);
    EXPECT_EQ(serial.summary, sharded.summary);
}

TEST(scenario_spec, file_roundtrip_through_disk)
{
    const auto spec = builtin_scenario("fig16", /*quick=*/true);
    const std::string path = testing::TempDir() + "l4span_scn_rt.json";
    ASSERT_EQ(scenario::write_scenario_file(path, spec), 0);
    const auto loaded = scenario::load_scenario_file(path);
    EXPECT_EQ(export_scenario(loaded).dump(), export_scenario(spec).dump());
    std::remove(path.c_str());
}

TEST(scenario_spec, missing_file_names_the_path)
{
    try {
        scenario::load_scenario_file("/nonexistent/l4span.json");
        FAIL() << "unreadable path must throw";
    } catch (const scenario_error& e) {
        EXPECT_NE(std::string(e.what()).find("/nonexistent/l4span.json"),
                  std::string::npos)
            << e.what();
    }
}

TEST(scenario_spec, unknown_key_error_names_key_and_line)
{
    auto doc = export_scenario(builtin_scenario("fig09", true));
    // Inject an unknown key into the sweep section and find its line.
    std::string text = doc.dump();
    const std::string needle = "\"baseline\"";
    const auto pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos);
    text.insert(pos, "\"axis\": [], ");
    try {
        parse_scenario_text(text, "<test>");
        FAIL() << "unknown key must be rejected";
    } catch (const scenario_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("\"sweep.axis\""), std::string::npos) << msg;
        EXPECT_NE(msg.find("line"), std::string::npos) << msg;
        // Diagnostic lists the valid keys so the fix is one glance away.
        EXPECT_NE(msg.find("axes"), std::string::npos) << msg;
    }
}

TEST(scenario_spec, out_of_range_value_names_key)
{
    auto doc = export_scenario(builtin_scenario("ecn_impairment", true));
    std::string text = doc.dump();
    const std::string needle = "\"loss\": 0";
    const auto pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, needle.size(), "\"loss\": 2.5");
    try {
        parse_scenario_text(text, "<test>");
        FAIL() << "loss probability > 1 must be rejected";
    } catch (const scenario_error& e) {
        EXPECT_NE(std::string(e.what()).find("loss"), std::string::npos)
            << e.what();
    }
}

TEST(scenario_spec, wrong_schema_tag_rejected)
{
    EXPECT_THROW(
        parse_scenario_text(R"({"schema": "l4span-scenario-v0"})", "<test>"),
        scenario_error);
    EXPECT_THROW(parse_scenario_text(R"({"figure": "x"})", "<test>"),
                 scenario_error);
}

TEST(scenario_spec, unknown_family_lists_valid_ones)
{
    try {
        parse_scenario_text(
            R"({"schema": "l4span-scenario-v1", "figure": "x", "title": "t",)"
            R"( "paper_ref": "r", "family": "mesh", "quick": false,)"
            R"( "duration_s": 1})",
            "<test>");
        FAIL() << "unknown family must be rejected";
    } catch (const scenario_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("mesh"), std::string::npos) << msg;
        EXPECT_NE(msg.find("sweep"), std::string::npos) << msg;
    }
}

TEST(scenario_spec, builtin_unknown_name_throws)
{
    EXPECT_THROW(builtin_scenario("fig99", false), scenario_error);
}

TEST(sweep, points_are_the_cross_product_first_axis_outermost)
{
    const auto spec = parse_scenario_text(sweep_doc(k_two_axes, R"(,
    "baseline": "cu")"), "<sweep>");
    const auto points = scenario::sweep_points(spec.sweep);
    ASSERT_EQ(points.size(), 6u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE(i);
        const bool on = i >= 3;
        const std::uint64_t seed = i % 3 + 1;
        EXPECT_EQ(points[i].label.dump_compact(),
                  std::string("{\"l4span\":") + (on ? "true" : "false") +
                      ",\"seed\":" + std::to_string(seed) + "}");
        EXPECT_EQ(points[i].cell.cu,
                  on ? scenario::cu_mode::l4span : scenario::cu_mode::none);
        EXPECT_EQ(points[i].cell.seed, seed);
        // Each +L4Span point is compared with the vanilla point of its seed.
        EXPECT_EQ(points[i].baseline, on ? static_cast<long>(i - 3) : -1L);
    }
}

TEST(sweep, overrides_keep_unset_members_and_merge_arrays_by_index)
{
    const auto spec = parse_scenario_text(sweep_doc(R"([
      {"name": "mix", "values": [
        {"label": {"mix": "base"}, "set": {}},
        {"label": {"mix": "changed"}, "set": {
          "cell": {"num_ues": 5, "wred": {"l4s": {"max_p": 0.5}}},
          "flows": [{}, {"cca": "reno"}, {"cca": "bbr", "ue": 4}]}}]}])"),
                                          "<sweep>");
    const auto points = scenario::sweep_points(spec.sweep);
    ASSERT_EQ(points.size(), 2u);
    const auto& base = points[0];
    const auto& changed = points[1];
    // A partial nested object keeps the members it does not name...
    EXPECT_EQ(changed.cell.num_ues, 5);
    EXPECT_EQ(changed.cell.wred.l4s.min_bytes, 1000u);
    EXPECT_EQ(changed.cell.wred.l4s.max_bytes, 9000u);
    EXPECT_DOUBLE_EQ(changed.cell.wred.l4s.max_p, 0.5);
    EXPECT_DOUBLE_EQ(base.cell.wred.l4s.max_p, 1.0);
    // ...and an array of objects merges element by element, appending past
    // the end of the base list.
    ASSERT_EQ(changed.flows.size(), 3u);
    EXPECT_EQ(changed.flows[0].spec.cca, "prague");
    EXPECT_EQ(changed.flows[0].count, 2);
    EXPECT_EQ(changed.flows[1].spec.cca, "reno");
    EXPECT_EQ(changed.flows[1].spec.ue, 2);
    EXPECT_EQ(changed.flows[2].spec.cca, "bbr");
    EXPECT_EQ(changed.flows[2].spec.ue, 4);
    EXPECT_EQ(changed.flows[2].count, 1);
    ASSERT_EQ(base.flows.size(), 2u);
}

TEST(sweep, bad_override_names_key_path_and_line)
{
    std::string axes = k_two_axes;
    const std::string needle = R"("seed": 2}})";
    const auto pos = axes.find(needle);
    ASSERT_NE(pos, std::string::npos);
    axes.replace(pos, needle.size(), R"("seed": "two"}})");
    const std::string text = sweep_doc(axes);
    const auto at = static_cast<long>(text.find("\"two\""));
    const int line =
        1 + static_cast<int>(std::count(text.begin(), text.begin() + at, '\n'));
    const std::string msg = parse_error(text);
    EXPECT_NE(msg.find("\"sweep.axes[1].values[1].set.cell.seed\""), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("(line " + std::to_string(line) + ")"), std::string::npos) << msg;

    // An override that makes a point inconsistent fails in validation too,
    // naming the point.
    const std::string crowded = parse_error(sweep_doc(R"([
      {"name": "n", "values": [
        {"label": {"n": 1}, "set": {"cell": {"num_ues": 2}}}]}])"));
    EXPECT_NE(crowded.find("sweep point 0 {\"n\":1}"), std::string::npos) << crowded;
    EXPECT_NE(crowded.find("exceeds cell.num_ues"), std::string::npos) << crowded;
}

TEST(sweep, two_axes_may_not_write_one_label_key)
{
    const std::string msg = parse_error(sweep_doc(R"([
      {"name": "a", "values": [{"label": {"seed": 1}, "set": {}}]},
      {"name": "b", "values": [{"label": {"seed": 2}, "set": {}}]}])"));
    EXPECT_NE(msg.find("\"sweep.axes[1].values[0].label.seed\""), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("earlier axis"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(line "), std::string::npos) << msg;
}

TEST(sweep, unknown_baseline_lists_the_axes)
{
    const std::string msg = parse_error(sweep_doc(k_two_axes, R"(,
    "baseline": "l4span")"));
    EXPECT_NE(msg.find("sweep.baseline"), std::string::npos) << msg;
    EXPECT_NE(msg.find("valid: cu, seed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(line "), std::string::npos) << msg;
}

TEST(sweep, oversized_cross_product_is_rejected_before_expansion)
{
    // Five 10-value axes cross to 100000 points; validate() would build
    // every one of them, so the parser must refuse first.
    std::string axes = "[";
    for (int a = 0; a < 5; ++a) {
        axes += std::string(a ? "," : "") + "{\"name\": \"a" + std::to_string(a) +
                "\", \"values\": [";
        for (int v = 0; v < 10; ++v)
            axes += std::string(v ? "," : "") + "{\"label\": {\"a" + std::to_string(a) +
                    "\": " + std::to_string(v) + "}}";
        axes += "]}";
    }
    axes += "]";
    const std::string msg = parse_error(sweep_doc(axes));
    EXPECT_NE(msg.find("more than 10000 points"), std::string::npos) << msg;
}
