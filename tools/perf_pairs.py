#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, and their verdicts.

Runs the reference benchmark (perfbench/run.py) on two source trees in
ABBA order, one fresh seed per pair, and judges every end-to-end metric of
BENCHMARK.json by the rules a performance claim is held to:

  * bound: the change's median may be worse than the parent's by at most
    the metric's bound (relative); when the parent's runs spread (IQR over
    median) wider than the bound, the metric is unresolved instead, unless
    every change run beats every parent run;
  * claim: the change wins at least 9 of every 10 pairs, and its median is
    better than the parent's by more than the parent's interquartile range;
  * balance: the parent runs first in half of the pairs. The first run of a
    pair can win on order alone, so a set where either side ran first more
    often prints as "unbalanced (parent first in k of n)" and its claim
    verdicts are withheld. Run mode refuses an odd number of seeds.

The median per-pair ratio (change / parent) is printed beside them: pairs
run back to back, so it is robust to a host whose speed drifts during a
set. It is a figure to read, never a substitute for the rule.

Run pairs (each tree's perfbench is built once, into its own build
directory, then every run reuses that build):

  git worktree add ../parent HEAD~1
  tools/perf_pairs.py --parent ../parent --change . \\
      --workload zipf-miss-mapped --seeds 5001-5010 --seconds 20 \\
      --log pairs.jsonl

Every run appends one JSON object to the log as soon as it finishes:
{"set", "workload", "seed", "pair", "side", "seconds", "trace",
"exit_code", "result"}, where "result" is perfbench's result object (null
when the run printed none). Re-print the analysis of a saved log with

  tools/perf_pairs.py --analyze pairs.jsonl

Traced pairs (--trace) run perfbench with --trace 1, whose result holds
the per-layer metrics instead of the end-to-end ones. --normalize-by LAYER
prints every per-layer metric's medians and its change/parent pair ratio
divided by the same pair's ratio of LAYER, a layer the change does not
touch: host drift within a pair moves both ratios, so the quotient is the
change's own effect. For example

  tools/perf_pairs.py --parent ../parent --change . --trace \\
      --workload w2-hot-large --seeds 7001-7005 \\
      --normalize-by usi_index.hit_ns_per_query

--selftest analyzes the committed fixture under tools/testdata and checks
the verdicts it must give (the `perf_pairs_selftest` CTest entry).

Standard library only, like check_links.py.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
FIXTURE = os.path.join(HERE, "testdata", "perf_pairs_fixture.jsonl")

# Used when no BENCHMARK.json is found next to the change tree.
DEFAULT_METRICS = [
    {"name": "query_qps", "better": "higher", "bound": 0.25},
    {"name": "batch_p50_us", "better": "lower", "bound": 0.25},
    {"name": "batch_p99_us", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.2},
]

# The fixture's traced set (5 w2-hot-large pairs recorded for the
# set-associative tier record, seeds 25401-25405) and the band its tier
# record cost must read in, normalized by the hit path: the set read 0.539
# (0.502 unnormalized).
TRACED_SET = "traced"
# The fixture's odd set: the first 5 pairs of a recorded 10-pair
# w2-hot-large set (seeds 27001-27005), so its parent ran first 3 times.
ODD_SET = "odd"
TRACED_RECORD_NORMALIZED = (0.52, 0.56)

CLAIM_MIN_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def load_metrics(root, kind="end_to_end"):
    """BENCHMARK.json's end_to_end (or per_layer) metric list; without one,
    the default end-to-end list (or None: take the layers the log holds)."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return DEFAULT_METRICS if kind == "end_to_end" else None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)[kind]


def parse_seeds(text):
    """"5001-5010" -> [5001, ..., 5010]; "7" -> [7]."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


# ---------------------------------------------------------------- running


def build(tree, target):
    """Builds tree's perfbench the way perfbench/run.py does, so the runs
    that follow find it up to date."""
    build_dir = os.path.join(target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(tree, "perfbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "usi_perfbench", "-j", str(min(4, os.cpu_count() or 1))],
                   stdout=sys.stderr, check=True)


def run_one(tree, target, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=False)
    result = None
    lines = done.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result


def run_pairs(args):
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    build_root = os.path.abspath(args.build_dir)
    targets = {side: os.path.join(build_root, side) for side in trees}
    for side, tree in trees.items():
        print(f"perf_pairs: building {side} perfbench ({tree})",
              file=sys.stderr)
        build(tree, targets[side])

    seeds = parse_seeds(args.seeds)
    label = args.set or f"{args.workload}:{seeds[0]}-{seeds[-1]}"
    records = []
    for pair, seed in enumerate(seeds):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            code, result = run_one(trees[side], targets[side], args.workload,
                                   seed, args.seconds, args.trace)
            record = {"set": label, "workload": args.workload, "seed": seed,
                      "pair": pair, "side": side, "seconds": args.seconds,
                      "trace": int(args.trace), "exit_code": code,
                      "result": result}
            records.append(record)
            with open(args.log, "a", encoding="utf-8") as log:
                log.write(json.dumps(record, sort_keys=True) + "\n")
            shown_metric = args.normalize_by if args.trace else "query_qps"
            value = metric_value(record, shown_metric)
            shown = ("no result" if value is None
                     else f"{shown_metric} {fmt(value)}")
            print(f"perf_pairs: pair {pair + 1}/{len(seeds)} seed {seed} "
                  f"{side}: exit {code}, {shown}", file=sys.stderr)
    return records


# --------------------------------------------------------------- analysis


def metric_value(record, name):
    result = record.get("result") or {}
    metric = (result.get("metrics") or {}).get(name)
    return None if metric is None else float(metric["value"])


def quartiles(values):
    """(Q1, median, Q3); Q1/Q3 by the exclusive method of
    statistics.quantiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt(value):
    magnitude = abs(value)
    if magnitude >= 1e6:
        return f"{value / 1e6:.3f}M"
    if magnitude >= 1e4:
        return f"{value / 1e3:.1f}k"
    return f"{value:.4g}"


def judge(metric, parent, change, balanced=True):
    """Verdicts for one metric over aligned per-pair values; an unbalanced
    set's claim is withheld (never met)."""
    higher = metric["better"] == "higher"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if (c > p if higher else c < p))
    ratios = [c / p for p, c in zip(parent, change) if p != 0]
    ratio = statistics.median(ratios) if ratios else math.nan

    delta = (cm - pm) / abs(pm) if pm != 0 else 0.0
    worse = (pm - cm) if higher else (cm - pm)
    worse_share = worse / abs(pm) if pm != 0 else 0.0
    spread = (p3 - p1) / abs(pm) if pm != 0 else 0.0
    separated = (min(change) > max(parent)) if higher else \
        (max(change) < min(parent))
    bound = metric.get("bound")
    if bound is None:
        state, why = "-", ""
    elif worse_share > bound:
        state = "REGRESSED"
        why = f" (worse by {worse_share:.1%} > bound {bound:.0%})"
    elif spread > bound and not separated:
        # Runs spread wider than the bound cannot show "no regression".
        state = "UNRESOLVED"
        why = f" (parent spread {spread:.1%} > bound {bound:.0%})"
    else:
        state, why = "within bound", f" {bound:.0%}"
    bound_verdict = f"median {delta:+.1%}, {state}{why}"

    gap = -worse
    iqr = p3 - p1
    met = (balanced and pairs >= CLAIM_MIN_PAIRS
           and wins >= CLAIM_WIN_SHARE * pairs and gap > iqr)
    claim = ("withheld (unbalanced set)" if not balanced else
             f"{'met' if met else 'not met'} "
             f"(wins {wins}/{pairs}, gap {fmt(gap)} vs IQR {fmt(iqr)})")
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
            "pairs": pairs, "ratio": ratio, "bound": bound_verdict,
            "state": state, "claim": claim, "met": met}


def group_sets(records):
    """{(set, workload): {seed: {side: record}}}, in log order."""
    sets = {}
    for record in records:
        key = (record["set"], record["workload"])
        sides = sets.setdefault(key, {}).setdefault(record["seed"], {})
        sides[record["side"]] = record  # A re-run replaces the earlier one.
    return sets


def balance_text(complete):
    """("", True) when the parent ran first in exactly half of the complete
    pairs, else ("unbalanced (parent first in k of n)", False). run_pairs
    puts the parent first in even-numbered pairs."""
    first = sum(1 for s in complete if s["parent"].get("pair", 0) % 2 == 0)
    if 2 * first == len(complete):
        return "", True
    return f"unbalanced (parent first in {first} of {len(complete)})", False


def run_ok(record):
    result = record.get("result")
    return (record.get("exit_code") == 0 and result is not None
            and result.get("correct", False) and result.get("failed", 0) == 0)


def spread_text(q1_median_q3):
    q1, median, q3 = q1_median_q3
    return f"{fmt(median)} [{fmt(q1)}, {fmt(q3)}]"


def analyze(records, metrics):
    """Prints one table per (set, workload); returns their verdicts."""
    verdicts = {}
    for (label, workload), by_seed in group_sets(records).items():
        complete = [s for s in by_seed.values()
                    if "parent" in s and "change" in s]
        runs = [r for s in by_seed.values() for r in s.values()]
        ok = sum(1 for r in runs if run_ok(r))
        failed = {"parent": 0, "change": 0}
        for run in runs:
            failed[run["side"]] += (run.get("result") or {}).get("failed", 0)
        if not any(metric_value(r, m["name"]) is not None
                   for r in runs for m in metrics):
            continue  # Traced runs: see analyze_layers.
        unbalanced, balanced = balance_text(complete)
        print(f"\nset {label}  workload {workload}  pairs {len(complete)}  "
              f"runs correct {ok}/{len(runs)}  failed ops parent "
              f"{failed['parent']} change {failed['change']}"
              f"{'  ' + unbalanced if unbalanced else ''}")
        print(f"{'metric':<14} {'parent median [Q1, Q3]':<32} "
              f"{'change median [Q1, Q3]':<32} {'wins':>6} "
              f"{'pair ratio':>10}  bound / claim")
        set_verdicts = {}
        for metric in metrics:
            name = metric["name"]
            pairs = [(metric_value(s["parent"], name),
                      metric_value(s["change"], name)) for s in complete]
            pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
            if not pairs:
                continue
            verdict = judge(metric, [p for p, _ in pairs],
                            [c for _, c in pairs], balanced)
            set_verdicts[name] = verdict
            wins = f"{verdict['wins']}/{verdict['pairs']}"
            print(f"{name:<14} {spread_text(verdict['parent']):<32} "
                  f"{spread_text(verdict['change']):<32} {wins:>6} "
                  f"{verdict['ratio']:>10.3f}  {verdict['bound']}; "
                  f"claim {verdict['claim']}")
        verdicts[(label, workload)] = set_verdicts
    return verdicts


def analyze_layers(records, layers, normalize_by):
    """Prints one per-layer table per traced (set, workload): medians, the
    median per-pair change/parent ratio, and that ratio over the same
    pair's ratio of \p normalize_by. Returns {(set, workload): {name:
    (ratio, normalized)}}; a ratio is None where a parent value is 0."""
    tables = {}
    for (label, workload), by_seed in group_sets(records).items():
        complete = [s for s in by_seed.values()
                    if "parent" in s and "change" in s
                    and metric_value(s["parent"], normalize_by) is not None
                    and metric_value(s["change"], normalize_by) is not None]
        if not complete:
            continue
        names = [m["name"] for m in layers] if layers else sorted(
            (complete[0]["parent"].get("result") or {}).get("metrics", {}))

        def pair_ratios(name):
            ratios = []
            for s in complete:
                p = metric_value(s["parent"], name)
                c = metric_value(s["change"], name)
                ratios.append(None if p in (None, 0) or c is None else c / p)
            return ratios

        reference = pair_ratios(normalize_by)
        unbalanced, _ = balance_text(complete)
        print(f"\nlayers of set {label}  workload {workload}  traced pairs "
              f"{len(complete)}  normalized by {normalize_by}"
              f"{'  ' + unbalanced if unbalanced else ''}")
        print(f"{'layer metric':<36} {'parent median':>14} "
              f"{'change median':>14} {'pair ratio':>10} {'normalized':>10}")
        table = {}
        for name in names:
            values = [(metric_value(s["parent"], name),
                       metric_value(s["change"], name)) for s in complete]
            if any(p is None or c is None for p, c in values):
                continue
            ratios = pair_ratios(name)
            valid = [r for r in ratios if r is not None]
            normalized = [r / ref for r, ref in zip(ratios, reference)
                          if r is not None and ref]
            ratio = statistics.median(valid) if valid else None
            norm = statistics.median(normalized) if normalized else None
            table[name] = (ratio, norm)
            shown_ratio = "-" if ratio is None else f"{ratio:.3f}"
            shown_norm = "-" if norm is None else f"{norm:.3f}"
            print(f"{name:<36} "
                  f"{fmt(statistics.median(p for p, _ in values)):>14} "
                  f"{fmt(statistics.median(c for _, c in values)):>14} "
                  f"{shown_ratio:>10} {shown_norm:>10}")
        tables[(label, workload)] = table
    return tables


def read_log(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# --------------------------------------------------------------- selftest


def selftest():
    """The fixture holds the query_qps pairs of three recorded claim sets
    for the equal-range learned miss search: two missed the claim rule (one
    on host drift, one by ~2% of the IQR rule), the third met it. The
    drifting set's parent runs spread wider than the bound. A fourth,
    traced set holds four per-layer metrics of recorded traced pairs, and
    a fifth, odd-sized set the end-to-end metrics of 5 recorded pairs."""
    failures = []
    verdicts = analyze(read_log(FIXTURE), DEFAULT_METRICS)
    if any(label == TRACED_SET for label, _ in verdicts):
        failures.append(f"set {TRACED_SET}: traced runs gave end-to-end "
                        "verdicts")
    expected = {"2001-2010": (False, "UNRESOLVED"),
                "2011-2020": (False, "within bound"),
                "4001-4010": (True, "within bound")}
    for label, (met, state) in expected.items():
        got = verdicts.get((label, "zipf-miss-mapped"), {}).get("query_qps")
        if got is None:
            failures.append(f"set {label}: no query_qps verdict")
        elif (got["met"], got["state"]) != (met, state):
            failures.append(f"set {label}: claim met={got['met']}, bound "
                            f"{got['state']}; want met={met}, bound {state}")

    # The odd set: recorded pairs whose parent ran first in 3 of 5. Every
    # claim verdict must be withheld, whatever the pairs read.
    odd = verdicts.get((ODD_SET, "w2-hot-large"), {})
    if not odd:
        failures.append(f"set {ODD_SET}: no verdicts")
    elif any(v["met"] or not v["claim"].startswith("withheld")
             for v in odd.values()):
        failures.append(f"set {ODD_SET}: an unbalanced set gave a claim "
                        "verdict")

    def synthetic(label, pairs, parent_qps, change_qps):
        records = []
        for pair in range(pairs):
            for side, qps in (("parent", parent_qps + pair),
                              ("change", change_qps + pair)):
                records.append({
                    "set": label, "workload": "w2-hot-large", "seed": pair,
                    "pair": pair, "side": side, "exit_code": 0,
                    "result": {"correct": True, "failed": 0, "metrics": {
                        "query_qps": {"value": qps, "unit": "1/s"}}}})
        return analyze(records, DEFAULT_METRICS)[
            (label, "w2-hot-large")]["query_qps"]

    # A uniform 30% slowdown must read as a regression and never as a claim.
    got = synthetic("slow", 10, 1.0e6, 0.7e6)
    if got["state"] != "REGRESSED" or got["met"]:
        failures.append("a 30% slowdown was not reported as regressed")

    # A uniform 30% gain meets the claim over 10 pairs, and is withheld
    # over 11, where the parent ran first once more than the change.
    if not synthetic("fast-10", 10, 1.0e6, 1.3e6)["met"]:
        failures.append("a 30% gain over 10 balanced pairs missed the claim")
    got = synthetic("fast-11", 11, 1.0e6, 1.3e6)
    if got["met"] or not got["claim"].startswith("withheld"):
        failures.append("a claim over 11 pairs was not withheld")

    # Traced pairs: the fixture's traced set, normalized by the index's hit
    # path, must read the tier's record cost as the change's own drop and
    # the normalizing layer as exactly 1.
    tables = analyze_layers(read_log(FIXTURE), None,
                            "usi_index.hit_ns_per_query")
    traced = tables.get((TRACED_SET, "w2-hot-large"), {})
    record = traced.get("degraded_tier.record_ns_per_query")
    hit = traced.get("usi_index.hit_ns_per_query")
    if record is None or hit is None:
        failures.append(f"set {TRACED_SET}: no per-layer table")
    else:
        if hit[1] is None or abs(hit[1] - 1.0) > 1e-9:
            failures.append(f"set {TRACED_SET}: the normalizing layer reads "
                            f"{hit[1]}, want 1")
        low, high = TRACED_RECORD_NORMALIZED
        if record[1] is None or not low <= record[1] <= high:
            failures.append(f"set {TRACED_SET}: record_ns_per_query "
                            f"normalized {record[1]}, want {low}-{high}")

    for failure in failures:
        print(f"perf_pairs selftest: FAIL {failure}", file=sys.stderr)
    if not failures:
        print("perf_pairs selftest: ok")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="source tree of the parent commit")
    parser.add_argument("--change", help="source tree of the change")
    parser.add_argument("--workload", help="perfbench workload name")
    parser.add_argument("--seeds", help="one seed per pair, e.g. 5001-5010")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--log", default="perf_pairs.jsonl",
                        help="JSONL log every run is appended to")
    parser.add_argument("--set", help="set label (default workload:seeds)")
    parser.add_argument("--build-dir", default=".bench_build/perf_pairs",
                        help="holds one build directory per side")
    parser.add_argument("--trace", action="store_true",
                        help="run traced pairs (perfbench --trace 1)")
    parser.add_argument("--normalize-by", metavar="LAYER",
                        default="usi_index.hit_ns_per_query",
                        help="per-layer metric the traced tables divide "
                        "every ratio by (default %(default)s)")
    parser.add_argument("--analyze", metavar="LOG",
                        help="print the analysis of a saved log and exit")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if args.analyze:
        records = read_log(args.analyze)
        analyze(records, load_metrics(REPO))
        analyze_layers(records, load_metrics(REPO, "per_layer"),
                       args.normalize_by)
        return 0
    if not (args.parent and args.change and args.workload and args.seeds):
        parser.error("--parent, --change, --workload and --seeds are required")
    if len(parse_seeds(args.seeds)) % 2 != 0:
        parser.error("--seeds must name an even number of pairs, so each "
                     "side runs first in half of them")
    records = run_pairs(args)
    change = os.path.abspath(args.change)
    analyze(records, load_metrics(change))
    analyze_layers(records, load_metrics(change, "per_layer"),
                   args.normalize_by)
    return 0


if __name__ == "__main__":
    sys.exit(main())
