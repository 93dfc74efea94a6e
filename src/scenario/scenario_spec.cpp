#include "scenario/scenario_spec.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace l4span::scenario {

namespace {

// Largest integer a double (and therefore a JSON number) carries exactly.
constexpr double k_max_exact = 9007199254740992.0;  // 2^53

// Time fields travel as milliseconds/seconds; conversion rounds to the
// nearest tick (nanosecond). Round-to-nearest — unlike from_ms's
// truncation — makes tick -> decimal -> tick the identity for every tick
// below 2^51 ns, which is what keeps export -> parse -> export exact.
sim::tick ms_to_tick(double ms)
{
    return static_cast<sim::tick>(std::llround(ms * sim::k_millisecond));
}
sim::tick sec_to_tick(double s)
{
    return static_cast<sim::tick>(std::llround(s * sim::k_second));
}

[[noreturn]] void fail(const std::string& origin, int line, const std::string& msg)
{
    // validate() has no origin; parse_scenario_text prefixes its errors.
    std::string out = origin.empty() ? msg : origin + ": " + msg;
    if (line > 0) out += " (line " + std::to_string(line) + ")";
    throw scenario_error(out);
}

// --- name tables -------------------------------------------------------------

template <class E>
struct named {
    E value;
    const char* name;
};

constexpr named<cu_mode> k_cu_modes[] = {{cu_mode::none, "none"},
                                         {cu_mode::l4span, "l4span"},
                                         {cu_mode::dualpi2_ran, "dualpi2_ran"},
                                         {cu_mode::tcran, "tcran"}};
constexpr named<net::ecn> k_ecns[] = {{net::ecn::not_ect, "not_ect"},
                                      {net::ecn::ect0, "ect0"},
                                      {net::ecn::ect1, "ect1"},
                                      {net::ecn::ce, "ce"}};
constexpr named<core::shared_drb_policy> k_policies[] = {
    {core::shared_drb_policy::original, "original"},
    {core::shared_drb_policy::l4s_all, "l4s_all"},
    {core::shared_drb_policy::classic_all, "classic_all"},
    {core::shared_drb_policy::coupled, "coupled"}};
constexpr const char* k_aqms[] = {"fifo", "dualpi2", "wred"};
constexpr const char* k_cross_models[] = {"poisson", "cbr"};

const char* name_of(const char* name) { return name; }
template <class E>
const char* name_of(const named<E>& entry)
{
    return entry.name;
}
template <class E, std::size_t N>
const char* name_of(const named<E> (&table)[N], E value)
{
    for (const auto& e : table)
        if (e.value == value) return e.name;
    return table[0].name;
}

// "a, b, c": the "valid:" list of a diagnostic.
template <class Table>
std::string join(const Table& table)
{
    std::string out;
    for (const auto& e : table) out += (out.empty() ? "" : ", ") + std::string(name_of(e));
    return out;
}

// The family tag -> parameter block map, in schema order: the one place the
// family names are spelled. Parse, export and validate all dispatch on it.
template <class S, class Fn>
void for_each_family(S& s, Fn&& fn)
{
    fn("sweep", s.sweep);
    fn("ecn_impairment", s.ecn_impairment);
    fn("fault_chaos", s.fault_chaos);
}

std::string family_names(const scenario_spec& s)
{
    std::string out;
    for_each_family(s, [&](const char* name, const auto&) {
        out += (out.empty() ? "" : ", ") + std::string(name);
    });
    return out;
}

// Channel profiles are parsed at run time; "trace" is caught here because
// it needs data files a scenario document cannot carry.
std::string trace_unavailable(const std::string& channel)
{
    if (channel != "trace") return "";
    return "\"trace\" is not available in scenario files (v1) — DCI trace "
           "replay needs trace data files; use bench_trace_replay (valid: "
           "static, pedestrian, vehicular, mobile)";
}

// --- field lists ---------------------------------------------------------------
// One list per schema struct names every key once, in export order, with its
// range and unit. A visitor walks it: `reader` binds a parsed object onto the
// struct (an absent key keeps the member's current value, so the struct
// defaults are the schema defaults), `writer` builds the exported object.
// Export writes every key, always; parse accepts exactly those keys. That
// pairing is what makes export -> parse -> export the byte identity.
//
// Visitor vocabulary: boolean, number, integer (integral, in range), u64
// (any exactly representable non-negative integer), ms/seconds (a tick in
// ms/s), stop_ms (ms, or -1 for "never"), str (optionally checked), choice
// (a name from a table), object (nested struct), objects (array of structs),
// values (required non-empty array of booleans), raw (a JSON object kept as
// parsed), fallback (a derived default for an empty string; parse only).
// `v.index` is the position of the struct in its parent array, -1 for a
// plain object.

// Whether an array key must be present (and non-empty), may be, or is not
// part of this object at all (rejected on parse, omitted on export).
enum class need { optional, required, never };

template <class V>
void fields(V& v, topo::impairment_spec& s)
{
    v.number("remark_ect1", s.remark_ect1, 0.0, 1.0);
    v.number("bleach_ce", s.bleach_ce, 0.0, 1.0);
    v.number("strip_ect", s.strip_ect, 0.0, 1.0);
    v.number("loss", s.loss, 0.0, 1.0);
    v.number("loss_burst", s.loss_burst, 1.0, 1e6);
    v.number("reorder", s.reorder, 0.0, 1.0);
    v.integer("reorder_gap", s.reorder_gap, 1, 1 << 20);
    v.ms("reorder_hold_max_ms", s.reorder_hold_max, 0.0, 60e3);
    v.number("duplicate", s.duplicate, 0.0, 1.0);
    v.boolean("force_stage", s.force_stage);
    // A flow policy (an array element) has no policies of its own.
    v.objects("flow_policies", s.flow_policies, v.index < 0 ? need::optional : need::never);
}

template <class V>
void fields(V& v, aqm::wred_profile& p)
{
    v.integer("min_bytes", p.min_bytes, 0, 1ll << 40);
    v.integer("max_bytes", p.max_bytes, 0, 1ll << 40);
    v.number("max_p", p.max_p, 0.0, 1.0);
}

template <class V>
void fields(V& v, aqm::wred_dualq_config& cfg)
{
    v.object("l4s", cfg.l4s);
    v.object("classic", cfg.classic);
    v.integer("ecn_drop_bytes", cfg.ecn_drop_bytes, 0, 1ll << 40);
    v.integer("l4s_weight", cfg.l4s_weight, 1, 1 << 20);
    v.integer("max_bytes", cfg.max_bytes, 1, 1ll << 40);
}

template <class V>
void fields(V& v, core::l4span_config& cfg)
{
    v.ms("sojourn_threshold_ms", cfg.sojourn_threshold, 0.1, 10e3);
    v.ms("coherence_time_ms", cfg.coherence_time, 0.1, 10e3);
    v.boolean("short_circuit", cfg.short_circuit);
    v.boolean("drop_non_ecn", cfg.drop_non_ecn);
    v.boolean("error_aware", cfg.error_aware);
    v.number("classic_beta", cfg.classic_beta, 0.01, 0.99);
    v.integer("mss", cfg.mss, 64, 65535);
    v.choice("shared_policy", cfg.shared_policy, "shared-DRB policy", k_policies);
    v.ms("prune_horizon_ms", cfg.prune_horizon, 1.0, 3600e3);
}

template <class V>
void fields(V& v, topo::cross_traffic_spec& s)
{
    v.choice("model", s.model, "model", k_cross_models);
    v.number("rate_bps", s.rate_bps, 0.0, 1e12);
    v.integer("pkt_bytes", s.pkt_bytes, 64, 65535);
    v.choice("ecn", s.ecn_field, "ECN codepoint", k_ecns);
    v.ms("start_ms", s.start_time, 0.0, 3600e3);
    v.stop_ms("stop_ms", s.stop_time);
    v.boolean("uplink", s.uplink);
}

template <class V>
void fields(V& v, cell_spec& c)
{
    v.integer("num_ues", c.num_ues, 1, 4096);
    v.str("channel", c.channel, trace_unavailable);
    v.integer("rlc_queue_sdus", c.rlc_queue_sdus, 1, 1ll << 30);
    v.choice("cu", c.cu, "CU mode", k_cu_modes);
    v.u64("seed", c.seed);
    v.boolean("separate_drbs_per_class", c.separate_drbs_per_class);
    v.number("bottleneck_bps", c.bottleneck_bps, 0.0, 1e12);
    v.choice("bottleneck_aqm", c.bottleneck_aqm, "AQM", k_aqms);
    v.object("wred", c.wred);
    v.number("ul_bottleneck_bps", c.ul_bottleneck_bps, 0.0, 1e12);
    v.object("l4s", c.l4s);
    v.object("impair_dl", c.impair_dl);
    v.object("impair_ul", c.impair_ul);
    v.objects("cross_traffic", c.cross_traffic, need::optional);
}

template <class V>
void fields(V& v, sweep_family::flow& fl)
{
    flow_spec& f = fl.spec;
    v.str("cca", f.cca);
    v.integer("ue", f.ue, 0, 1 << 20);
    v.integer("count", fl.count, 1, 4096);
    v.ms("start_ms", f.start_time, 0.0, 3600e3);
    v.stop_ms("stop_ms", f.stop_time);
    v.u64("flow_bytes", f.flow_bytes);
    v.number("wired_owd_ms", f.wired_owd_ms, 0.0, 10e3);
    v.integer("mss", f.mss, 64, 65535);
    v.u64("max_cwnd", f.max_cwnd);
    v.number("media_max_bps", f.media_max_bps, 0.0, 1e12);
    v.number("media_start_bps", f.media_start_bps, 0.0, 1e12);
    v.number("fps", f.fps, 0.0, 1e3);
    v.number("frame_bitrate_bps", f.frame_bitrate_bps, 0.0, 1e12);
    v.number("keyframe_interval_s", f.keyframe_interval_s, 0.01, 3600.0);
    v.number("keyframe_scale", f.keyframe_scale, 1.0, 1e3);
    v.number("frame_deadline_ms", f.frame_deadline_ms, 0.1, 10e3);
}

template <class V>
void fields(V& v, ecn_impairment_family::transport& t)
{
    v.str("cca", t.cca);
    v.fallback(t.cca, "prague");
    v.str("label", t.label);
    v.fallback(t.label, t.cca);
}

template <class V>
void fields(V& v, ecn_impairment_family::profile& p)
{
    v.str("name", p.name);
    v.fallback(p.name, "profile" + std::to_string(v.index));
    v.boolean("drop_non_ecn", p.drop_non_ecn);
    v.object("impair", p.impair);
}

template <class V>
void fields(V& v, ecn_impairment_family& f)
{
    v.u64("seed", f.seed);
    v.integer("ues", f.ues, 1, 4096);
    v.number("bottleneck_bps", f.bottleneck_bps, 1e3, 1e12);
    v.choice("bottleneck_aqm", f.bottleneck_aqm, "AQM", k_aqms);
    v.number("cross_rate_bps", f.cross_rate_bps, 0.0, 1e12);
    v.values("cross_options", f.cross_options);
    v.objects("ccas", f.ccas, need::required);
    v.objects("profiles", f.profiles, need::required);
}

template <class V>
void fields(V& v, fault_chaos_family::profile& p)
{
    v.str("name", p.name);
    v.fallback(p.name, "profile" + std::to_string(v.index));
    v.number("rlf_per_ue_per_sec", p.rlf_per_ue_per_sec, 0.0, 100.0);
    v.number("ho_failure_per_ue_per_sec", p.ho_failure_per_ue_per_sec, 0.0, 100.0);
    v.number("outages_per_cell_per_sec", p.outages_per_cell_per_sec, 0.0, 100.0);
    v.number("flaps_per_cell_per_sec", p.flaps_per_cell_per_sec, 0.0, 100.0);
}

template <class V>
void fields(V& v, fault_chaos_family::transport& t)
{
    v.str("cca", t.cca);
    v.fallback(t.cca, "prague");
    v.boolean("media", t.media);
}

template <class V>
void fields(V& v, fault_chaos_family& f)
{
    v.integer("num_cells", f.num_cells, 1, 64);
    v.integer("ues_per_cell", f.ues_per_cell, 1, 256);
    v.u64("cell_seed", f.cell_seed);
    v.number("wired_bps", f.wired_bps, 1e3, 1e12);
    v.u64("fault_seed", f.fault_seed);
    v.number("fault_start_ms", f.fault_start_ms, 0.0, 3600e3);
    v.number("fault_end_margin_ms", f.fault_end_margin_ms, 0.0, 3600e3);
    v.objects("profiles", f.profiles, need::required);
    v.objects("transports", f.transports, need::required);
}

template <class V>
void fields(V& v, sweep_family::value& x)
{
    v.raw("label", x.label);
    v.raw("set", x.set);
}

template <class V>
void fields(V& v, sweep_family::axis& a)
{
    v.str("name", a.name);
    v.objects("values", a.values, need::required);
}

// "" or what is wrong with `baseline` as an axis name of `f`.
std::string baseline_error(const sweep_family& f, const std::string& baseline)
{
    if (baseline.empty()) return "";
    std::string names;
    for (const auto& a : f.axes) {
        if (a.name == baseline) return "";
        names += (names.empty() ? "" : ", ") + a.name;
    }
    return "baseline \"" + baseline + "\" names no axis (valid: " + names + ")";
}

template <class V>
void fields(V& v, sweep_family& f)
{
    v.object("cell", f.cell);
    v.objects("flows", f.flows, need::required);
    v.objects("axes", f.axes, need::optional);
    v.str("baseline", f.baseline,
          [&](const std::string& b) { return baseline_error(f, b); });
}

// What an axis value's `set` may override.
template <class V>
void fields(V& v, sweep_point& p)
{
    v.object("cell", p.cell);
    v.objects("flows", p.flows, need::optional);
}

template <class V>
void fields(V& v, scenario_spec& s)
{
    v.constant("schema", k_scenario_schema);
    v.str("figure", s.figure);
    v.str("title", s.title);
    v.str("paper_ref", s.paper_ref);
    v.boolean("quick", s.quick);
    v.seconds("duration_s", s.duration, 0.001, 3600.0);
    v.family("family", s);
}

// --- reader: parsed object -> struct --------------------------------------------
// Typed, range-checked binding that marks the keys it consumes, plus a final
// unknown-key sweep. Every error names the full key path and a source line.

class reader {
public:
    // `merge`: arrays of objects bind by index onto the existing elements
    // (a sweep override) instead of replacing the array.
    reader(const std::string& origin, const stats::json& node, std::string path,
           int index = -1, bool merge = false)
        : index(index), origin_(origin), node_(node), path_(std::move(path)), merge_(merge)
    {
        if (!node_.is_object())
            fail(origin_, node_.line(), "\"" + path_ + "\" must be an object");
    }

    const int index;

    void boolean(const char* key, bool& b)
    {
        const stats::json* v = opt(key);
        if (!v) return;
        if (!v->is_bool()) fail_key(key, *v, "must be true or false");
        b = v->as_bool();
    }

    void number(const char* key, double& d, double lo, double hi)
    {
        if (const stats::json* v = opt(key)) d = check_range(key, *v, lo, hi);
    }

    template <class T>
    void integer(const char* key, T& n, long long lo, long long hi)
    {
        const stats::json* v = opt(key);
        if (!v) return;
        const double d = check_range(key, *v, static_cast<double>(lo),
                                     static_cast<double>(hi));
        if (d != std::floor(d))
            fail_key(key, *v, "must be an integer, got " + std::to_string(d));
        n = static_cast<T>(d);
    }

    void u64(const char* key, std::uint64_t& n)
    {
        const stats::json* v = opt(key);
        if (!v) return;
        const double d = check_range(key, *v, 0.0, k_max_exact);
        if (d != std::floor(d)) fail_key(key, *v, "must be a non-negative integer");
        n = static_cast<std::uint64_t>(d);
    }

    void ms(const char* key, sim::tick& t, double lo, double hi)
    {
        if (const stats::json* v = opt(key)) t = ms_to_tick(check_range(key, *v, lo, hi));
    }

    void stop_ms(const char* key, sim::tick& t)
    {
        const stats::json* v = opt(key);
        if (!v) return;
        const double d = check_range(key, *v, -1.0, 3600e3);
        t = d < 0.0 ? -1 : ms_to_tick(d);
    }

    void seconds(const char* key, sim::tick& t, double lo, double hi)
    {
        if (const stats::json* v = opt(key)) t = sec_to_tick(check_range(key, *v, lo, hi));
    }

    // `check(value)` returns "" or what is wrong with the (possibly
    // defaulted) value; the diagnostic names the key.
    template <class Check>
    void str(const char* key, std::string& s, Check check)
    {
        str(key, s);
        const std::string err = check(s);
        if (!err.empty())
            fail(origin_, line(), "key \"" + path_ + "." + key + "\": " + err);
    }

    void str(const char* key, std::string& s)
    {
        const stats::json* v = opt(key);
        if (!v) return;
        if (!v->is_string()) fail_key(key, *v, "must be a string");
        s = v->as_string();
    }

    template <class Table>
    void choice(const char* key, std::string& s, const char* what, const Table& table)
    {
        str(key, s, [&](const std::string& name) {
            for (const auto& e : table)
                if (name == name_of(e)) return std::string();
            return "unknown " + std::string(what) + " \"" + name + "\" (valid: " +
                   join(table) + ")";
        });
    }

    template <class E, std::size_t N>
    void choice(const char* key, E& value, const char* what, const named<E> (&table)[N])
    {
        std::string name = name_of(table, value);
        choice(key, name, what, table);
        for (const auto& e : table)
            if (name == e.name) value = e.value;
    }

    void constant(const char* key, const char* value)
    {
        std::string got;
        str(key, got);
        if (got != value)
            fail(origin_, line(),
                 "key \"" + path_ + "." + key + "\" must be \"" + value + "\", got \"" +
                     got + "\"");
    }

    void fallback(std::string& s, const std::string& derived)
    {
        if (s.empty()) s = derived;
    }

    template <class T>
    void object(const char* key, T& member)
    {
        const stats::json* v = opt(key);
        if (!v) return;
        if (!v->is_object()) fail_key(key, *v, "must be an object");
        // Family sections hang off the root but are named by themselves.
        reader r(origin_, *v, path_ == "$" ? std::string(key) : path_ + "." + key, -1,
                 merge_);
        fields(r, member);
        r.done();
    }

    template <class T>
    void objects(const char* key, std::vector<T>& out, need n)
    {
        const stats::json* a = list(key, n);
        if (!a) return;
        if (!merge_) out.clear();
        for (std::size_t i = 0; i < a->elements().size(); ++i) {
            reader r(origin_, a->elements()[i],
                     path_ + "." + key + "[" + std::to_string(i) + "]",
                     static_cast<int>(i), merge_);
            if (i == out.size()) out.emplace_back();
            fields(r, out[i]);
            r.done();
        }
    }

    void raw(const char* key, stats::json& out)
    {
        const stats::json* v = opt(key);
        if (!v) return;
        if (!v->is_object()) fail_key(key, *v, "must be an object");
        out = *v;
    }

    // Required, non-empty array of booleans.
    void values(const char* key, std::vector<bool>& out)
    {
        const stats::json* a = list(key, need::required);
        out.clear();
        for (const auto& e : a->elements()) {
            if (!e.is_bool())
                fail(origin_, e.line(),
                     "key \"" + path_ + "." + key + "\" entries must be booleans");
            out.push_back(e.as_bool());
        }
    }

    // `family` selects one parameter block, which must be present; the
    // other families' blocks must not be — two blocks with one selector is
    // a scenario that silently ignores half its content.
    void family(const char* key, scenario_spec& s)
    {
        str(key, s.family);
        bool known = false;
        for_each_family(s, [&](const char* name, auto& block) {
            if (s.family != name) return;
            known = true;
            if (!node_.find(name))
                fail(origin_, line(),
                     "missing section \"$." + s.family +
                         "\" (the family names its parameter block)");
            object(name, block);
        });
        if (!known)
            fail(origin_, line(),
                 "key \"" + path_ + "." + key + "\": unknown family \"" + s.family +
                     "\" (valid: " + family_names(s) + ")");
        for_each_family(s, [&](const char* name, const auto&) {
            if (s.family == name) return;
            if (const stats::json* stray = opt(name))
                fail(origin_, stray->line(),
                     "section \"$." + std::string(name) + "\" present but family is \"" +
                         s.family + "\" — remove it or change $.family");
        });
    }

    // Unknown-key sweep: every accessor above registered its key, so by now
    // `known_` is the complete schema of this object and anything else is a
    // typo worth naming (with the valid keys, so the fix is one glance).
    void done()
    {
        for (const auto& [key, value] : node_.members()) {
            bool ok = false;
            for (const char* k : known_)
                if (key == k) { ok = true; break; }
            if (ok) continue;
            std::string valid;
            for (const char* k : known_)
                valid += (valid.empty() ? "" : ", ") + std::string(k);
            fail(origin_, value.line() > 0 ? value.line() : node_.line(),
                 "unknown key \"" + path_ + "." + key + "\" (valid: " + valid + ")");
        }
    }

private:
    int line() const { return node_.line(); }

    // Returns the member or nullptr, remembering `key` as known.
    const stats::json* opt(const char* key)
    {
        known_.push_back(key);
        return node_.find(key);
    }

    // The array member `key`, or nullptr when it is absent and optional.
    const stats::json* list(const char* key, need n)
    {
        const stats::json* a = opt(key);
        if (!a) {
            if (n == need::required)
                fail(origin_, line(),
                     "missing required key \"" + path_ + "." + key + "\"");
            return nullptr;
        }
        if (!a->is_array()) fail_key(key, *a, "must be an array");
        if (n == need::required && a->elements().empty())
            fail_key(key, *a, "must not be empty");
        if (n == need::never)
            fail_key(key, *a, "may not nest (per-flow policies are one level deep)");
        return a;
    }

    [[noreturn]] void fail_key(const char* key, const stats::json& v,
                               const std::string& msg)
    {
        fail(origin_, v.line() > 0 ? v.line() : line(),
             "key \"" + path_ + "." + key + "\" " + msg);
    }

    double check_range(const char* key, const stats::json& v, double lo, double hi)
    {
        if (!v.is_number()) fail_key(key, v, "must be a number");
        const double d = v.as_number();
        if (d < lo || d > hi)
            fail_key(key, v,
                     "must be in [" + std::to_string(lo) + ", " +
                         std::to_string(hi) + "], got " + std::to_string(d));
        return d;
    }

    const std::string& origin_;
    const stats::json& node_;
    std::string path_;
    bool merge_;
    std::vector<const char*> known_;
};

// --- writer: struct -> exported object ------------------------------------------

class writer {
public:
    template <class T>
    static stats::json write(T& x, int index = -1)
    {
        writer w(index);
        fields(w, x);
        return std::move(w.out_);
    }

    const int index;

    void boolean(const char* key, bool b) { out_.set(key, b); }
    void number(const char* key, double d, double, double) { out_.set(key, d); }
    template <class T>
    void integer(const char* key, T n, long long, long long)
    {
        out_.set(key, static_cast<double>(n));
    }
    void u64(const char* key, std::uint64_t n) { out_.set(key, n); }
    void ms(const char* key, sim::tick t, double, double) { out_.set(key, sim::to_ms(t)); }
    void stop_ms(const char* key, sim::tick t)
    {
        out_.set(key, t < 0 ? -1.0 : sim::to_ms(t));
    }
    void seconds(const char* key, sim::tick t, double, double)
    {
        out_.set(key, sim::to_sec(t));
    }
    template <class Check>
    void str(const char* key, const std::string& s, Check)
    {
        out_.set(key, s);
    }
    void str(const char* key, const std::string& s) { out_.set(key, s); }
    template <class Table>
    void choice(const char* key, const std::string& s, const char*, const Table&)
    {
        out_.set(key, s);
    }
    template <class E, std::size_t N>
    void choice(const char* key, E value, const char*, const named<E> (&table)[N])
    {
        out_.set(key, name_of(table, value));
    }
    void constant(const char* key, const char* value) { out_.set(key, value); }
    void raw(const char* key, const stats::json& j) { out_.set(key, j); }
    void fallback(const std::string&, const std::string&) {}

    template <class T>
    void object(const char* key, T& member)
    {
        out_.set(key, write(member));
    }

    template <class T>
    void objects(const char* key, std::vector<T>& items, need n)
    {
        if (n == need::never) return;
        auto a = stats::json::array();
        for (std::size_t i = 0; i < items.size(); ++i)
            a.push(write(items[i], static_cast<int>(i)));
        out_.set(key, std::move(a));
    }

    void values(const char* key, const std::vector<bool>& items)
    {
        auto a = stats::json::array();
        for (const bool e : items) a.push(e);
        out_.set(key, std::move(a));
    }

    void family(const char* key, scenario_spec& s)
    {
        out_.set(key, s.family);
        bool known = false;
        for_each_family(s, [&](const char* name, auto& block) {
            if (s.family != name) return;
            known = true;
            object(name, block);
        });
        if (!known)
            throw scenario_error("export_scenario: unknown family \"" + s.family + "\"");
    }

private:
    explicit writer(int index) : index(index) {}

    stats::json out_ = stats::json::object();
};

// --- semantic checks per family block -------------------------------------------

void require(bool ok, const std::string& msg)
{
    if (!ok) throw scenario_error(msg);
}

// Sub-spec validate() calls throw std::invalid_argument; surface them as
// scenario_error.
template <class Fn>
void as_scenario_error(Fn&& fn)
{
    try {
        fn();
    } catch (const std::invalid_argument& e) {
        throw scenario_error(e.what());
    }
}

void check(const ecn_impairment_family& f, sim::tick)
{
    require(!f.ccas.empty() && !f.profiles.empty() && !f.cross_options.empty(),
            "ecn_impairment: ccas, profiles and cross_options each need at "
            "least one entry");
    as_scenario_error([&] {
        for (std::size_t i = 0; i < f.profiles.size(); ++i)
            f.profiles[i].impair.validate("ecn_impairment.profiles[" +
                                          std::to_string(i) + "].impair");
    });
}

void check(const fault_chaos_family& f, sim::tick duration)
{
    require(!f.profiles.empty() && !f.transports.empty(),
            "fault_chaos: profiles and transports each need at least one entry");
    require(sim::from_ms(f.fault_start_ms) + sim::from_ms(f.fault_end_margin_ms) <
                duration,
            "fault_chaos: fault_start_ms + fault_end_margin_ms must leave a "
            "non-empty fault window inside duration_s");
}

// Labels become the output record's keys and the table's columns: every
// value of an axis carries the same keys, each a scalar of one JSON type.
// (sweep_points rejects a key that two axes write.)
void check_labels(const sweep_family& f)
{
    for (std::size_t a = 0; a < f.axes.size(); ++a) {
        const std::string at = "sweep.axes[" + std::to_string(a) + "].values[";
        const stats::json& first = f.axes[a].values.front().label;
        for (std::size_t i = 0; i < f.axes[a].values.size(); ++i) {
            const stats::json& label = f.axes[a].values[i].label;
            const std::string path = at + std::to_string(i) + "].label";
            if (!label.is_object() || label.members().size() != first.members().size())
                fail("", label.line(),
                     "key \"" + path + "\" must be an object with the keys of \"" + at +
                         "0].label\"");
            for (const auto& [key, v] : label.members()) {
                const stats::json* ref = first.find(key);
                if ((!v.is_bool() && !v.is_number() && !v.is_string()) || !ref ||
                    ref->type() != v.type())
                    fail("", v.line(),
                         "key \"" + path + "." + key +
                             "\" must be a string, number or boolean, typed like \"" +
                             at + "0].label." + key + "\"");
            }
        }
    }
}

void check(const sweep_family& f, sim::tick)
{
    require(!f.flows.empty(), "sweep.flows needs at least one entry");
    std::size_t n = 1;
    for (std::size_t a = 0; a < f.axes.size(); ++a) {
        const std::string at = "sweep.axes[" + std::to_string(a) + "]";
        require(!f.axes[a].values.empty(), at + ".values needs at least one entry");
        for (std::size_t b = 0; b < a; ++b)
            require(f.axes[b].name != f.axes[a].name,
                    at + ".name: axis name \"" + f.axes[a].name + "\" is used twice");
        // validate() builds every point, so the cross product must stay small.
        n *= f.axes[a].values.size();
        require(n <= 10000, at + ": the axes cross to more than 10000 points");
    }
    const std::string err = baseline_error(f, f.baseline);
    require(err.empty(), "key \"sweep.baseline\": " + err);
    check_labels(f);
    const auto points = sweep_points(f);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const sweep_point& p = points[i];
        const std::string at =
            "sweep point " + std::to_string(i) + " " + p.label.dump_compact() + ": ";
        as_scenario_error([&] {
            p.cell.impair_dl.validate(at + "cell.impair_dl");
            p.cell.impair_ul.validate(at + "cell.impair_ul");
            p.cell.wred.validate(at + "cell.wred");
            for (std::size_t c = 0; c < p.cell.cross_traffic.size(); ++c)
                p.cell.cross_traffic[c].validate(at + "cell.cross_traffic[" +
                                                 std::to_string(c) + "]");
        });
        for (const auto& fl : p.flows)
            require(fl.spec.ue + fl.count <= p.cell.num_ues,
                    at + "flow on ue " + std::to_string(fl.spec.ue) + " with count " +
                        std::to_string(fl.count) + " exceeds cell.num_ues (" +
                        std::to_string(p.cell.num_ues) + ")");
    }
}

}  // namespace

std::vector<sweep_point> sweep_points(const sweep_family& f)
{
    std::size_t n = 1;
    for (const auto& axis : f.axes) n *= axis.values.size();
    const std::string origin;  // parse_scenario_text prefixes its own
    std::vector<sweep_point> points;
    for (std::size_t i = 0; i < n; ++i) {
        sweep_point p{f.cell, f.flows};
        std::size_t stride = n;  // points per value of the current axis
        for (std::size_t a = 0; a < f.axes.size(); ++a) {
            const auto& axis = f.axes[a];
            stride /= axis.values.size();
            const std::size_t k = i / stride % axis.values.size();
            const std::string at =
                "sweep.axes[" + std::to_string(a) + "].values[" + std::to_string(k) + "]";
            for (const auto& [key, v] : axis.values[k].label.members()) {
                if (p.label.find(key))
                    fail(origin, v.line(),
                         "key \"" + at + ".label." + key + "\": label key \"" + key +
                             "\" is already written by an earlier axis");
                p.label.set(key, v);
            }
            reader r(origin, axis.values[k].set, at + ".set", -1, /*merge=*/true);
            fields(r, p);
            r.done();
            if (k > 0 && axis.name == f.baseline)
                p.baseline = static_cast<long>(i - k * stride);
        }
        points.push_back(std::move(p));
    }
    return points;
}

void scenario_spec::validate() const
{
    require(duration > 0, "duration_s must be > 0");
    bool known = false;
    for_each_family(*this, [&](const char* name, const auto& block) {
        if (family != name) return;
        known = true;
        check(block, duration);
    });
    if (!known)
        throw scenario_error("unknown family \"" + family + "\" (valid: " +
                             family_names(*this) + ")");
}

scenario_spec parse_scenario_text(std::string_view text, const std::string& origin)
{
    stats::json doc;
    try {
        doc = stats::json::parse(text);
    } catch (const stats::json_parse_error& e) {
        throw scenario_error(origin + ": " + e.what());
    }
    reader r(origin, doc, "$");
    scenario_spec spec;
    spec.figure = spec.title = "scenario";
    spec.paper_ref = "custom scenario";
    fields(r, spec);
    r.done();
    try {
        spec.validate();
    } catch (const scenario_error& e) {
        throw scenario_error(origin + ": " + e.what());
    }
    return spec;
}

scenario_spec load_scenario_file(const std::string& path)
{
    std::string text;
    if (!stats::read_text_file(path, text))
        throw scenario_error(path + ": cannot read scenario file");
    return parse_scenario_text(text, path);
}

stats::json export_scenario(const scenario_spec& spec)
{
    scenario_spec copy = spec;
    return writer::write(copy);
}

int write_scenario_file(const std::string& path, const scenario_spec& spec)
{
    if (!stats::write_text_file(path, export_scenario(spec).dump())) {
        std::fprintf(stderr, "error: cannot write scenario to %s\n", path.c_str());
        return 1;
    }
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return 0;
}

}  // namespace l4span::scenario
