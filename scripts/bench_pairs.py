#!/usr/bin/env python3
"""Alternating parent/change livebench pairs, judged by BENCHMARK.json.

    scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --seeds 2-11 \\
        [--seconds 20] [--claim METRIC] [--json OUT]

PARENT_TREE and CHANGE_TREE are two checkouts of this repository. Each
runs its own livebench/run.py with CARGO_TARGET_DIR set to
TREE/.bench_build, so the two builds never share a directory whatever
the environment says. The script refuses to run when the trees'
BENCHMARK.json or livebench/ differ: the pairs must measure one
benchmark. For each seed the two sides run back to back, the parent
first on odd seeds and the change first on even ones.

Every run prints its `correct`, `attempted` and `failed`. Then, for each
end-to-end metric in BENCHMARK.json, one line gives both sides' median
with quartiles, the change/parent ratio of the medians and the pairs the
change won; ties count for neither side, and the metric's `better` gives
the direction. The last column is a verdict:

  - for the --claim metric, `claim met` when the change won at least 9 of
    every 10 pairs and its median beats the parent's by more than the
    parent's interquartile range, else `claim NOT met`;
  - for every other metric, `better` when every change run beats every
    parent run, `WORSE` when the change's median is worse than the
    parent's by more than the metric's `bound` (a share of the parent's
    median), `unresolved` when either side's interquartile range is
    wider than the bound, else `within bound`.

--seeds takes a range (2-11), a list (2,5,9) or both (2-4,9). --json
writes every run's result and every metric's summary to OUT.

Exit status: 0; 1 when a run is incorrect or livebench fails; 2 on a
usage error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    """'2-11', '2,5,9' or '2-4,9' as a list of ints, in the given order."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.strip().partition("-")
        if not lo.isdigit() or (sep and not hi.isdigit()):
            raise ValueError("bad seed list %r" % text)
        first, last = int(lo), int(hi) if sep else int(lo)
        if last < first:
            raise ValueError("bad seed range %r" % part)
        seeds.extend(range(first, last + 1))
    return seeds


def side_order(seed):
    """Which side runs first: the parent on odd seeds, the change on even."""
    return ("parent", "change") if seed % 2 else ("change", "parent")


def _files(root):
    found = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in filenames:
            path = os.path.join(dirpath, name)
            found[os.path.relpath(path, root)] = path
    return found


def _same_bytes(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def benchmark_difference(parent, change):
    """None when both trees hold the same BENCHMARK.json and livebench/,
    else the first differing path relative to the tree."""
    for tree in (parent, change):
        if not os.path.isfile(os.path.join(tree, "BENCHMARK.json")):
            return "BENCHMARK.json missing in %s" % tree
    if not _same_bytes(os.path.join(parent, "BENCHMARK.json"),
                       os.path.join(change, "BENCHMARK.json")):
        return "BENCHMARK.json"
    old = _files(os.path.join(parent, "livebench"))
    new = _files(os.path.join(change, "livebench"))
    for rel in sorted(set(old) | set(new)):
        where = os.path.join("livebench", rel)
        if rel not in new:
            return where + ": only in the parent"
        if rel not in old:
            return where + ": only in the change"
        if not _same_bytes(old[rel], new[rel]):
            return where
    return None


def quartiles(values):
    """(first quartile, median, third quartile), as livebench/selfcheck.py
    computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def beats(a, b, better):
    """True when value a is strictly better than value b."""
    return a < b if better == "lower" else a > b


def summarize(spec, parent, change, claim=False):
    """Summary of one end-to-end metric over paired runs.

    spec is the metric's BENCHMARK.json entry; parent and change hold one
    value per pair, pair i of each from the same seed."""
    better, bound = spec["better"], spec["bound"]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    won = sum(beats(c, p, better) for p, c in zip(parent, change))
    lost = sum(beats(p, c, better) for p, c in zip(parent, change))
    # How much worse the change's median is, as a share of the parent's
    # (negative when it is better).
    gap = (c_med - p_med) if better == "lower" else (p_med - c_med)
    worse_share = gap / p_med if p_med else 0.0
    p_spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    c_spread = (c_q3 - c_q1) / c_med if c_med else 0.0
    if claim:
        ok = won * 10 >= 9 * len(parent) and -gap > p_q3 - p_q1
        verdict = "claim met" if ok else "claim NOT met"
    elif all(beats(c, p, better) for p in parent for c in change):
        verdict = "better"
    elif worse_share > bound:
        verdict = "WORSE"
    elif p_spread > bound or c_spread > bound:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "name": spec["name"], "unit": spec["unit"], "better": better,
        "bound": bound, "pairs": len(parent), "won": won, "lost": lost,
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "ratio": c_med / p_med if p_med else float("nan"),
        "worse_share": worse_share, "verdict": verdict,
    }


def format_summary(s):
    def side(q):
        return "%10.4g (%.4g-%.4g)" % (q["median"], q["q1"], q["q3"])
    return "%-17s %-6s %s -> %s  x%.3f  won %d/%d  %s" % (
        s["name"], s["unit"], side(s["parent"]), side(s["change"]),
        s["ratio"], s["won"], s["pairs"], s["verdict"])


def run_livebench(tree, workload, seed, seconds):
    """One untraced run of the tree's own livebench; its JSON result."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "livebench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("livebench in %s exited with %d (seed %d)"
                           % (tree, proc.returncode, seed))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--claim")
    parser.add_argument("--json")
    args = parser.parse_args(argv)

    trees = {"parent": os.path.abspath(args.parent_tree),
             "change": os.path.abspath(args.change_tree)}
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as e:
        parser.error(str(e))
    diff = benchmark_difference(trees["parent"], trees["change"])
    if diff:
        parser.error("the trees' benchmarks differ: %s" % diff)
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        specs = json.load(f)["end_to_end"]
    if args.claim and args.claim not in {s["name"] for s in specs}:
        parser.error("--claim %s is not an end-to-end metric" % args.claim)

    runs = {"parent": [], "change": []}
    incorrect = False
    for seed in seeds:
        for side in side_order(seed):
            try:
                result = run_livebench(trees[side], args.workload, seed,
                                       args.seconds)
            except (RuntimeError, ValueError, IndexError) as e:
                print("livebench failed: %s" % e, file=sys.stderr)
                return 1
            result["seed"] = seed
            runs[side].append(result)
            bad = not result["correct"] or result["failed"] != 0
            incorrect |= bad
            print("seed %-3d %-6s correct %-5s attempted %-7d failed %d%s"
                  % (seed, side, str(result["correct"]).lower(),
                     result["attempted"], result["failed"],
                     "  INCORRECT" if bad else ""), flush=True)

    summaries = []
    print("\n%s, %d pairs of %g s (parent -> change, median (q1-q3)):"
          % (args.workload, len(seeds), args.seconds))
    for spec in specs:
        def values(side):
            return [r["metrics"][spec["name"]]["value"] for r in runs[side]]
        s = summarize(spec, values("parent"), values("change"),
                      claim=spec["name"] == args.claim)
        summaries.append(s)
        print(format_summary(s))

    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "seeds": seeds, "claim": args.claim, "runs": runs,
                       "summaries": summaries}, f, indent=1)
            f.write("\n")
    if incorrect:
        print("at least one run was incorrect", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
