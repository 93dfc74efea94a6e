#!/usr/bin/env python3
"""Reproduction-fidelity check: compare committed BENCH_*.json trajectories
against the paper's published anchor numbers and warn on drift.

Wiring for the ROADMAP fidelity item: the ANCHORS table covers the Fig. 9
headline OWD reductions, the Fig. 14 fairness indices and the Fig. 24
BBR/Reno coexistence medians — extend it as more figures get
published-number extractions. Warn-only by default so CI stays green while
the reproduction converges; --strict turns drift into a nonzero exit (the
CI workflow exposes this as a manual-dispatch input for later flipping).

An anchor may carry "known_drift_pct": a tracked, understood divergence
(e.g. the BBRv2 OWD model drifting ~13% from Fig. 9) that is reported as
`known` instead of `DRIFT` as long as the measured drift stays within the
tracked value plus the tolerance — so CI flags regressions beyond the
understood gap without crying wolf about the gap itself.

Strictness comes in two tiers. --strict turns ANY drift into a nonzero
exit. --strict-pinned (the CI default) only fails on drift of *pinned*
anchors — those without a "known_drift_pct" entry, i.e. numbers the
reproduction has already converged on and must not regress — while
tracked-divergence anchors keep warn-only semantics until their gap is
closed. A missing BENCH file or a --quick slice skips its anchors; a full
file that lacks an anchor's point or metric counts as MISSING and fails
under the same tiers as drift.

Usage: scripts/check_fidelity.py [--strict] [--strict-pinned]
                                 [--tolerance PCT] [--selftest] [repo_root]
"""

import argparse
import json
import pathlib
import sys

TOLERANCE_PCT = 10.0

# Paper-published anchors. Each entry: JSON file, a point selector
# (key -> required value), the metric path inside the point, and the
# published value. Fig. 9 reductions are the §6.2.1 headline numbers;
# Fig. 24 shares are the §6.2.5 coexistence medians.
ANCHORS = [
    {
        "figure": "fig09",
        "file": "BENCH_fig09.json",
        "select": {"cca": "prague", "chan": "static", "l4span": True,
                   "ues": 16, "rlc_queue_sdus": 16384, "base_rtt_ms": 38},
        "metric": ["owd_reduction_pct"],
        "paper": 98.0,
        "note": "Fig. 9: L4Span median OWD reduction, Prague/static",
    },
    {
        "figure": "fig09",
        "file": "BENCH_fig09.json",
        "select": {"cca": "prague", "chan": "mobile", "l4span": True,
                   "ues": 16, "rlc_queue_sdus": 16384, "base_rtt_ms": 38},
        "metric": ["owd_reduction_pct"],
        "paper": 97.0,
        "note": "Fig. 9: L4Span median OWD reduction, Prague/mobile",
    },
    {
        "figure": "fig09",
        "file": "BENCH_fig09.json",
        "select": {"cca": "cubic", "chan": "static", "l4span": True,
                   "ues": 16, "rlc_queue_sdus": 16384, "base_rtt_ms": 38},
        "metric": ["owd_reduction_pct"],
        "paper": 98.0,
        "note": "Fig. 9: L4Span median OWD reduction, CUBIC/static",
    },
    {
        "figure": "fig09",
        "file": "BENCH_fig09.json",
        "select": {"cca": "bbr2", "chan": "static", "l4span": True,
                   "ues": 16, "rlc_queue_sdus": 16384, "base_rtt_ms": 38},
        "metric": ["owd_reduction_pct"],
        "paper": 52.0,
        # Tracked divergence, root-caused with obs:: tracing on this exact
        # grid point (16 UE / static / 16384 SDU / 38 ms): L4Span marks
        # 13.8% of BBRv2's downlink packets (all predicted-sojourn
        # "tentative" marks), and the repo's BBRv2 applies its ECN inflight
        # cut on *every* CE-carrying ACK — the traced gap between successive
        # transport_ce reactions has a 9.7 ms median, i.e. ~4 cuts per 38 ms
        # round, where kernel BBRv2 bounds the ECN response to one cut per
        # round trip. The repeated within-round cuts hold cwnd nearer the
        # BDP (median 19 kB at reaction vs the ~10.5 kB BDP), so the OWD
        # reduction lands at ~59% vs the paper's 52% — a ~13% relative
        # overshoot. A once-per-round cap would move every pinned benchmark;
        # tracked here instead. Reproduce: docs/OBSERVABILITY.md §fidelity.
        "known_drift_pct": 13.0,
        "note": "Fig. 9: L4Span median OWD reduction, BBRv2/static",
    },
    # Fig. 13 (§6.2.3): interactive media flows under L4Span hold their RTT
    # near the propagation floor on the static channel — ~20 ms for the
    # UDP-Prague video call, ~16 ms for SCReAM.
    {
        "figure": "fig13",
        "file": "BENCH_fig13.json",
        "select": {"algo": "udp-prague", "chan": "static", "l4span": True},
        "metric": ["rtt_ms", "p50"],
        "paper": 20.0,
        "note": "Fig. 13: UDP-Prague media RTT with L4Span, static",
    },
    {
        "figure": "fig13",
        "file": "BENCH_fig13.json",
        "select": {"algo": "scream", "chan": "static", "l4span": True},
        "metric": ["rtt_ms", "p50"],
        "paper": 16.0,
        "note": "Fig. 13: SCReAM media RTT with L4Span, static",
    },
    # Fig. 16 (§6.2.6): on a shared DRB the coupled marking strategy lands
    # Prague near a 60% throughput share at an even RTT split.
    {
        "figure": "fig16",
        "file": "BENCH_fig16.json",
        "select": {"strategy": "L4Span (coupled)"},
        "metric": ["l4s_tput_share_pct"],
        "paper": 60.0,
        "note": "Fig. 16: L4S throughput share, coupled marking",
    },
    {
        "figure": "fig16",
        "file": "BENCH_fig16.json",
        "select": {"strategy": "L4Span (coupled)"},
        "metric": ["l4s_rtt_share_pct"],
        "paper": 50.0,
        "note": "Fig. 16: L4S RTT share, coupled marking",
    },
    # Fig. 17 (§6.3.1): RLC queue occupancy stays at a handful of SDUs.
    {
        "figure": "fig17",
        "file": "BENCH_fig17.json",
        "select": {"cca": "prague", "chan": "static", "ues": 16},
        "metric": ["queue_sdus", "p50"],
        "paper": 3.0,
        "note": "Fig. 17: median RLC queue, Prague/16 SDU limit, static",
    },
    {
        "figure": "fig17",
        "file": "BENCH_fig17.json",
        "select": {"cca": "cubic", "chan": "static", "ues": 64},
        "metric": ["queue_sdus", "p50"],
        "paper": 2.0,
        "note": "Fig. 17: median RLC queue, CUBIC/64 SDU limit, static",
    },
    # Fig. 19 (§6.3.3): with 16 UEs and a 10 ms marking threshold the cell
    # sustains ~35 Mbps aggregate at ~65 ms mean RTT.
    {
        "figure": "fig19",
        "file": "BENCH_fig19.json",
        "select": {"ues": 16, "tau_ms": 10},
        "metric": ["rate_sum_mbps"],
        "paper": 35.0,
        "note": "Fig. 19: aggregate rate, 16 UEs / tau 10 ms",
    },
    {
        "figure": "fig19",
        "file": "BENCH_fig19.json",
        "select": {"ues": 16, "tau_ms": 10},
        "metric": ["mean_rtt_ms"],
        "paper": 65.0,
        "note": "Fig. 19: mean RTT, 16 UEs / tau 10 ms",
    },
    # Fig. 14 (§6.2.4): staggered flows converge to equal shares — the paper
    # reports near-perfect fairness (Jain index ~1) in every case.
    {
        "figure": "fig14",
        "file": "BENCH_fig14.json",
        "select": {"case": "(a) 3x Prague, similar RTT"},
        "metric": ["jain_index"],
        "paper": 1.0,
        "note": "Fig. 14a: Jain index, 3x Prague similar RTT",
    },
    {
        "figure": "fig14",
        "file": "BENCH_fig14.json",
        "select": {"case": "(b) 3x Prague, distinct RTT (25/82/57 ms)"},
        "metric": ["jain_index"],
        "paper": 1.0,
        "note": "Fig. 14b: Jain index, 3x Prague distinct RTT",
    },
    {
        "figure": "fig14",
        "file": "BENCH_fig14.json",
        "select": {"case": "(c) 2x Prague + CUBIC"},
        "metric": ["jain_index"],
        "paper": 1.0,
        "note": "Fig. 14c: Jain index, 2x Prague + CUBIC",
    },
    # Fig. 18 (§6.3.2): the fraction of channel stable periods (MCS deviation
    # <= 5) longer than the 12.45 ms estimation window. The paper reports the
    # window below >90% of stable periods — essentially all of them for the
    # low-Doppler 600 MHz FDD cell, ~90% for the 2.5 GHz TDD driving cell.
    {
        "figure": "fig18",
        "file": "BENCH_fig18.json",
        "select": {"cell": "fdd-600MHz"},
        "metric": ["frac_above_window"],
        "paper": 1.0,
        "note": "Fig. 18: stable periods above estimation window, FDD 600 MHz",
    },
    {
        "figure": "fig18",
        "file": "BENCH_fig18.json",
        "select": {"cell": "tdd-2.5GHz"},
        "metric": ["frac_above_window"],
        "paper": 0.9,
        "note": "Fig. 18: stable periods above estimation window, TDD 2.5 GHz",
    },
    # Fig. 24 (Appendix B): Reno's OWD collapses to tens of ms under L4Span
    # while (non-ECN-responsive) BBRv1 sits unchanged near its ~70 ms BDP.
    {
        "figure": "fig24",
        "file": "BENCH_fig24.json",
        "select": {"cca": "reno", "chan": "static", "l4span": True,
                   "ues": 16, "rlc_queue_sdus": 16384},
        "metric": ["owd_ms", "p50"],
        "paper": 40.0,
        "note": "Fig. 24: Reno median OWD with L4Span, static",
    },
    {
        "figure": "fig24",
        "file": "BENCH_fig24.json",
        "select": {"cca": "bbr", "chan": "static", "l4span": True,
                   "ues": 16, "rlc_queue_sdus": 16384},
        "metric": ["owd_ms", "p50"],
        "paper": 70.0,
        "note": "Fig. 24: BBRv1 median OWD (L4Span cannot help), static",
    },
    # Tab. 1 (§6.4): L4Span's busy-cell overhead on the srsRAN CU, ~0.25%
    # CPU and ~4% memory. The CPU anchor's tracked divergence is the
    # hot-path campaign's acceptance bound (<8% measured overhead, i.e.
    # 3100% drift vs the paper's 0.25%): post-campaign the measured
    # overhead sits at paper scale (~0.2-2%), but the paired measurement is
    # noisy on shared runners, so the band stays wide enough to absorb
    # jitter while a regression back to the pre-campaign ~20% (7900%
    # drift) trips DRIFT.
    {
        "figure": "tab1",
        "file": "BENCH_tab1.json",
        "list_key": "rows",
        "select": {"state": "busy", "l4span": True},
        "metric": ["cpu_overhead_pct"],
        "paper": 0.25,
        "known_drift_pct": 3100.0,
        "note": "Tab. 1: L4Span CPU overhead, busy cell",
    },
    {
        "figure": "tab1",
        "file": "BENCH_tab1.json",
        "list_key": "rows",
        "select": {"state": "busy", "l4span": True},
        "metric": ["mem_overhead_pct"],
        "paper": 4.0,
        "note": "Tab. 1: L4Span memory overhead, busy cell",
    },
]

# Robustness anchors with no paper number: the goodput each transport keeps
# when the wired path strips ECN and L4Span falls back to dropping
# (strip+drop, no cross traffic). A stale standing queue once collapsed
# these rows to 1-4 Mbit/s while every paper anchor still passed.
for _cca, _value in (("tcp-prague", 26.26), ("quic-prague", 27.25),
                     ("tcp-cubic", 16.63), ("tcp-bbr2", 27.15)):
    ANCHORS.append({
        "figure": "ecn_impairment",
        "file": "BENCH_ecn_impairment.json",
        "select": {"cca": _cca, "impairment": "strip+drop",
                   "cross_traffic": False},
        "metric": ["goodput_mbps"],
        "paper": _value,
        "note": f"ECN strip+drop goodput, {_cca}, no cross traffic "
                "(pinned to committed value, no paper number)",
    })


def select_point(points, want):
    for p in points:
        if all(p.get(k) == v for k, v in want.items()):
            return p
    return None


def dig(obj, path):
    for key in path:
        if not isinstance(obj, dict) or key not in obj:
            return None
        obj = obj[key]
    return obj


def classify(value, anchor, tolerance):
    """Returns (status, drift_pct). Status is 'ok', 'known' (within a
    tracked divergence) or 'DRIFT'."""
    paper = anchor["paper"]
    drift = 100.0 * abs(value - paper) / abs(paper)
    if drift <= tolerance:
        return "ok", drift
    known = anchor.get("known_drift_pct")
    if known is not None and drift <= known + tolerance:
        return "known", drift
    return "DRIFT", drift


def check_anchor(anchor, data, tolerance):
    """Checks one anchor against a parsed BENCH document. Returns
    (status, message); status in {'skip', 'ok', 'known', 'DRIFT',
    'MISSING'}. A --quick slice is skipped; a full document that lacks the
    selected point or metric is MISSING, which fails like DRIFT, so a
    renamed key cannot turn an anchor into a silent pass."""
    if data.get("quick"):
        return "skip", f"{anchor['file']} is a --quick slice"
    # Grid benches emit "points"; table-shaped ones (Tab. 1) emit "rows".
    list_key = anchor.get("list_key", "points")
    point = select_point(data.get(list_key, []), anchor["select"])
    if point is None:
        return "MISSING", f"no grid point matches {anchor['select']}"
    value = dig(point, anchor["metric"])
    if value is None:
        return "MISSING", f"metric {anchor['metric']} missing"
    status, drift = classify(value, anchor, tolerance)
    msg = (f"repo {value:.1f} vs paper {anchor['paper']:.1f} "
           f"({drift:.1f}% drift, tolerance {tolerance:.0f}%)")
    if status == "known":
        msg += f" [tracked divergence {anchor['known_drift_pct']:.0f}%]"
    return status, msg


def exit_code(results, strict, strict_pinned):
    """Exit policy over per-anchor outcomes. `results` is a list of
    (status, pinned) pairs, pinned = the anchor has no known_drift_pct.
    --strict fails on any DRIFT or MISSING; --strict-pinned only on pinned
    ones."""
    failing = ("DRIFT", "MISSING")
    any_drift = any(s in failing for s, _ in results)
    pinned_drift = any(s in failing and pinned for s, pinned in results)
    if strict and any_drift:
        return 1
    if strict_pinned and pinned_drift:
        return 1
    return 0


def selftest():
    """Validates the checker against embedded fixtures so CI can catch a
    broken selector/classifier without any BENCH file present."""
    doc = {"quick": False, "points": [
        {"cca": "x", "chan": "static", "m": {"p50": 100.0}},
        {"cca": "y", "chan": "static", "m": {"p50": 80.0}},
    ]}
    mk = lambda sel, paper, **extra: dict(
        {"figure": "t", "file": "t.json", "select": sel,
         "metric": ["m", "p50"], "paper": paper, "note": "t"}, **extra)

    cases = [
        # (anchor, doc, expected status)
        (mk({"cca": "x"}, 100.0), doc, "ok"),
        (mk({"cca": "x"}, 95.0), doc, "ok"),        # 5.3% < 10%
        (mk({"cca": "y"}, 100.0), doc, "DRIFT"),    # 20% > 10%
        (mk({"cca": "y"}, 100.0, known_drift_pct=13.0), doc, "known"),
        (mk({"cca": "y"}, 100.0, known_drift_pct=5.0), doc, "DRIFT"),
        (mk({"cca": "z"}, 1.0), doc, "MISSING"),    # no matching point
        (mk({"cca": "x"}, 1.0), {"quick": True, "points": []}, "skip"),
        ({"figure": "t", "file": "t.json", "select": {"cca": "x"},
          "metric": ["missing"], "paper": 1.0, "note": "t"}, doc, "MISSING"),
        # "rows"-shaped documents resolve through list_key.
        (mk({"cca": "x"}, 100.0, list_key="rows"),
         {"quick": False, "rows": doc["points"]}, "ok"),
        (mk({"cca": "x"}, 100.0, list_key="rows"), doc, "MISSING"),
    ]
    failed = 0
    for i, (anchor, d, want) in enumerate(cases):
        got, msg = check_anchor(anchor, d, TOLERANCE_PCT)
        ok = got == want
        failed += not ok
        print(f"{'ok   ' if ok else 'FAIL '} selftest[{i}]: "
              f"want {want}, got {got} ({msg})")
    # Exit-policy matrix: (results, strict, strict_pinned) -> exit code.
    policy_cases = [
        ([("ok", True), ("known", False)], False, False, 0),
        ([("ok", True), ("known", False)], True, False, 0),
        # A tracked-divergence anchor regressing past its band: DRIFT but
        # not pinned — fails --strict, passes --strict-pinned.
        ([("DRIFT", False)], False, True, 0),
        ([("DRIFT", False)], True, False, 1),
        # A pinned anchor drifting fails both strict tiers, never the
        # warn-only default.
        ([("DRIFT", True)], False, True, 1),
        ([("DRIFT", True)], True, False, 1),
        ([("DRIFT", True)], False, False, 0),
        ([], True, True, 0),
        # A full document without the anchor's point or metric fails
        # closed under either strict tier, like drift.
        ([("ok", True), ("MISSING", True)], False, True, 1),
        ([("MISSING", True)], True, False, 1),
        ([("MISSING", True)], False, False, 0),
        ([("MISSING", False)], False, True, 0),
        ([("MISSING", False)], True, False, 1),
    ]
    for i, (results, strict, pinned, want) in enumerate(policy_cases):
        got = exit_code(results, strict, pinned)
        ok = got == want
        failed += not ok
        print(f"{'ok   ' if ok else 'FAIL '} selftest[policy {i}]: "
              f"strict={strict} strict_pinned={pinned} "
              f"want exit {want}, got {got}")
    # Every committed anchor must be well-formed.
    for anchor in ANCHORS:
        for key in ("figure", "file", "select", "metric", "paper", "note"):
            if key not in anchor:
                print(f"FAIL  anchor {anchor.get('note', '?')}: missing {key}")
                failed += 1
    print(f"selftest: {len(cases) + len(policy_cases)} cases, "
          f"{failed} failures, {len(ANCHORS)} anchors validated")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--strict", action="store_true",
                    help="exit nonzero on any drift (default: warn only)")
    ap.add_argument("--strict-pinned", action="store_true",
                    help="exit nonzero on drift of pinned anchors (those "
                         "without a tracked known_drift_pct); "
                         "tracked-divergence anchors still warn only")
    ap.add_argument("--tolerance", type=float, default=TOLERANCE_PCT,
                    help="allowed relative drift in percent (default 10)")
    ap.add_argument("--selftest", action="store_true",
                    help="run the checker against embedded fixtures and exit")
    ap.add_argument("repo_root", nargs="?",
                    default=pathlib.Path(__file__).resolve().parent.parent)
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    root = pathlib.Path(args.repo_root)

    results = []
    for anchor in ANCHORS:
        path = root / anchor["file"]
        if not path.exists():
            print(f"skip  {anchor['note']}: {anchor['file']} not found")
            continue
        data = json.loads(path.read_text())
        status, msg = check_anchor(anchor, data, args.tolerance)
        if status == "skip":
            print(f"skip  {anchor['note']}: {msg}")
            continue
        pinned = "known_drift_pct" not in anchor
        results.append((status, pinned))
        print(f"{status:<5} {anchor['note']}: {msg}")

    drifted = sum(1 for s, _ in results if s == "DRIFT")
    pinned_drifted = sum(1 for s, p in results if s == "DRIFT" and p)
    missing = sum(1 for s, _ in results if s == "MISSING")
    print(f"checked {len(results)} anchors, {drifted} drifted "
          f"({pinned_drifted} pinned), {missing} missing")
    return exit_code(results, args.strict, args.strict_pinned)


if __name__ == "__main__":
    sys.exit(main())
