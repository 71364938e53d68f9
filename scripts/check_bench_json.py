#!/usr/bin/env python3
"""Validate BENCH_*.json artifacts against the bench-report schema.

Schema (schema_version 1, produced by src/metrics/bench_report.cpp):

  {
    "schema_version": 1,
    "bench":   "<bench_name>",
    "config":  { "<key>": "<string value>", ... },
    "counters":   { "<name>": <non-negative int>, ... },
    "gauges":     { "<name>": <number>, ... },
    "summaries":  { "<name>": {count, mean, p50, p90, p99, p999,
                               min, max, stddev}, ... },
    "histograms": { "<name>": {total, mean, max,
                               buckets: {"<value>": <count>}}, ... }
  }

Checks, per file:
  - parses as JSON, all five top-level sections present with right types
  - schema_version == 1 and "bench" is a non-empty string
  - the sig-cache counters the CI perf trajectory tracks are present
  - at least one latency summary (a "*_ms" summary) with count > 0 and
    internally consistent stats (min <= p50 <= p99 <= p999 <= max)
  - histogram totals equal the sum of their buckets

Usage:
  check_bench_json.py FILE [FILE...]   # validate specific artifacts
  check_bench_json.py --committed      # validate every BENCH_*.json
                                       # committed at the repo root (the
                                       # lint CI job runs this mode)
  check_bench_json.py --compare OLD NEW [--threshold PCT]
      Validate both reports, then print per-counter deltas and per-op
      derived ratios (bytes_sent/write, msgs_sent/op, sig_verify_calls/op,
      encode_calls/op, sign/op, mac_sign/op, mac_verify/op). Exits 1 when
      any watched ratio in NEW regressed (grew) more than PCT percent
      over OLD (default 10). Ratios whose counters are absent from either
      report are skipped, so MAC-less benches compare unchanged. When the
      two reports record different config "sha256_kernel" values, a
      one-line note says so (timings are then not comparable); the note
      never changes the exit status.
Exit status: 0 if every file passes, 1 otherwise, 2 on usage error.
"""

import glob
import json
import numbers
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

REQUIRED_SECTIONS = {
    "config": dict,
    "counters": dict,
    "gauges": dict,
    "summaries": dict,
    "histograms": dict,
}
REQUIRED_COUNTERS = ("sig_cache_hit", "sig_cache_miss", "sig_verify_calls")
SUMMARY_FIELDS = (
    "count", "mean", "p50", "p90", "p99", "p999", "min", "max", "stddev",
)


def fail(errors, path, msg):
    errors.append(f"{path}: {msg}")


def check_summary(errors, path, name, s):
    if not isinstance(s, dict):
        fail(errors, path, f"summary {name!r} is not an object")
        return
    for field in SUMMARY_FIELDS:
        if field not in s:
            fail(errors, path, f"summary {name!r} missing field {field!r}")
            return
        if not isinstance(s[field], numbers.Real):
            fail(errors, path, f"summary {name!r} field {field!r} not numeric")
            return
    if s["count"] > 0 and not (
        s["min"] <= s["p50"] <= s["p99"] <= s["p999"] <= s["max"]
    ):
        fail(
            errors,
            path,
            f"summary {name!r} percentiles out of order: "
            f"min={s['min']} p50={s['p50']} p99={s['p99']} "
            f"p999={s['p999']} max={s['max']}",
        )


def check_histogram(errors, path, name, h):
    if not isinstance(h, dict):
        fail(errors, path, f"histogram {name!r} is not an object")
        return
    for field in ("total", "mean", "max", "buckets"):
        if field not in h:
            fail(errors, path, f"histogram {name!r} missing field {field!r}")
            return
    if not isinstance(h["buckets"], dict):
        fail(errors, path, f"histogram {name!r} buckets is not an object")
        return
    bucket_sum = sum(h["buckets"].values())
    if bucket_sum != h["total"]:
        fail(
            errors,
            path,
            f"histogram {name!r} total={h['total']} != bucket sum {bucket_sum}",
        )


def check_file(path):
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable or invalid JSON: {e}"]

    if not isinstance(doc, dict):
        return [f"{path}: top level is not an object"]
    if doc.get("schema_version") != 1:
        fail(errors, path, f"schema_version={doc.get('schema_version')!r}, want 1")
    bench = doc.get("bench")
    if not isinstance(bench, str) or not bench:
        fail(errors, path, "missing or empty 'bench' name")

    for section, want_type in REQUIRED_SECTIONS.items():
        if not isinstance(doc.get(section), want_type):
            fail(errors, path, f"section {section!r} missing or wrong type")
    if errors:
        return errors

    counters = doc["counters"]
    for name in REQUIRED_COUNTERS:
        if name not in counters:
            fail(errors, path, f"required counter {name!r} missing")
    for name, v in counters.items():
        if not isinstance(v, int) or v < 0:
            fail(errors, path, f"counter {name!r} is not a non-negative int")

    for name, s in doc["summaries"].items():
        check_summary(errors, path, name, s)
    for name, h in doc["histograms"].items():
        check_histogram(errors, path, name, h)

    latency = [
        n
        for n, s in doc["summaries"].items()
        if n.endswith("_ms") and isinstance(s, dict) and s.get("count", 0) > 0
    ]
    if not latency:
        fail(errors, path, "no populated '*_ms' latency summary")

    return errors


# ----------------------------------------------------------- --compare mode

# Derived per-op ratios watched for regressions. Each entry maps a label
# to (counter, divisor) where divisor is "write" (sum of client/*/writes)
# or "op" (writes + reads). Lower is better for all of them.
WATCHED_RATIOS = (
    ("bytes_sent/write", "net/bytes_sent", "write"),
    ("msgs_sent/op", "net/msgs_sent", "op"),
    ("sig_verify_calls/op", "sig_verify_calls", "op"),
    ("encode_calls/op", "net/encode_calls", "op"),
    # Authentication work per op: RSA signatures minted, and the MAC
    # sign/verify volume of the §3.3.2 authenticator mode. Absent
    # counters (benches that never enable MAC mode) are skipped.
    ("sign/op", "sign", "op"),
    ("mac_sign/op", "mac_sign", "op"),
    ("mac_verify/op", "mac_verify", "op"),
)


def client_op_counts(counters):
    """Returns (writes, ops) summed over every client/*/ counter."""
    writes = reads = 0
    for name, v in counters.items():
        parts = name.split("/")
        if len(parts) == 3 and parts[0] == "client":
            if parts[2] == "writes":
                writes += v
            elif parts[2] == "reads":
                reads += v
    return writes, writes + reads


def derived_ratios(counters):
    writes, ops = client_op_counts(counters)
    ratios = {}
    for label, counter, basis in WATCHED_RATIOS:
        denom = writes if basis == "write" else ops
        if denom > 0 and counter in counters:
            ratios[label] = counters[counter] / denom
    return ratios


def kernel_note(old, new):
    """A one-line note when OLD and NEW ran different SHA-256 kernels."""
    ok = old["config"].get("sha256_kernel")
    nk = new["config"].get("sha256_kernel")
    if ok is None or nk is None or ok == nk:
        return None
    return (f"note: sha256_kernel differs (OLD={ok}, NEW={nk}); "
            "counters compare, timings do not")


def compare_reports(old_path, new_path, threshold_pct):
    """Prints counter deltas + ratio deltas; returns exit status."""
    for path in (old_path, new_path):
        errs = check_file(path)
        if errs:
            for e in errs:
                print(f"FAIL {e}", file=sys.stderr)
            return 1
    with open(old_path, encoding="utf-8") as f:
        old = json.load(f)
    with open(new_path, encoding="utf-8") as f:
        new = json.load(f)
    old_c, new_c = old["counters"], new["counters"]

    print(f"compare: OLD={old_path} NEW={new_path}")
    note = kernel_note(old, new)
    if note:
        print(note)
    print(f"{'counter':<40} {'old':>12} {'new':>12} {'delta':>12}")
    for name in sorted(set(old_c) | set(new_c)):
        ov, nv = old_c.get(name), new_c.get(name)
        if ov is None:
            print(f"{name:<40} {'-':>12} {nv:>12} {'(added)':>12}")
        elif nv is None:
            print(f"{name:<40} {ov:>12} {'-':>12} {'(removed)':>12}")
        elif ov != nv:
            print(f"{name:<40} {ov:>12} {nv:>12} {nv - ov:>+12}")

    old_r, new_r = derived_ratios(old_c), derived_ratios(new_c)
    regressions = []
    print(f"\n{'ratio':<40} {'old':>12} {'new':>12} {'change':>9}")
    for label, _, _ in WATCHED_RATIOS:
        if label not in old_r or label not in new_r:
            print(f"{label:<40} missing counters in one report, skipped")
            continue
        ov, nv = old_r[label], new_r[label]
        pct = 0.0 if ov == 0 else (nv - ov) / ov * 100.0
        print(f"{label:<40} {ov:>12.3f} {nv:>12.3f} {pct:>+8.2f}%")
        if ov > 0 and pct > threshold_pct:
            regressions.append((label, pct))
    for label, pct in regressions:
        print(
            f"FAIL ratio {label!r} regressed {pct:+.2f}% "
            f"(threshold {threshold_pct:g}%)",
            file=sys.stderr,
        )
    return 1 if regressions else 0


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if argv[1] == "--compare":
        rest = argv[2:]
        threshold = 10.0
        if "--threshold" in rest:
            i = rest.index("--threshold")
            try:
                threshold = float(rest[i + 1])
            except (IndexError, ValueError):
                print("--threshold needs a numeric argument", file=sys.stderr)
                return 2
            del rest[i : i + 2]
        if len(rest) != 2:
            print("--compare takes exactly OLD and NEW", file=sys.stderr)
            return 2
        return compare_reports(rest[0], rest[1], threshold)
    if argv[1] == "--committed":
        if len(argv) > 2:
            print("--committed takes no extra arguments", file=sys.stderr)
            return 2
        paths = sorted(glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json")))
        if not paths:
            # A repo with no committed baselines is fine; one with a
            # malformed baseline is not — so absence is a pass.
            print("check_bench_json: no committed BENCH_*.json to check")
            return 0
    else:
        paths = argv[1:]
    all_errors = []
    for path in paths:
        errs = check_file(path)
        if errs:
            all_errors.extend(errs)
        else:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
            print(
                f"OK {path}: bench={doc['bench']} "
                f"{len(doc['counters'])} counters, "
                f"{len(doc['summaries'])} summaries, "
                f"{len(doc['histograms'])} histograms"
            )
    for e in all_errors:
        print(f"FAIL {e}", file=sys.stderr)
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
