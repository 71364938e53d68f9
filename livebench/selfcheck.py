#!/usr/bin/env python3
"""Checks the benchmark itself: run-to-run spread and exact per-op counts.

    python3 livebench/selfcheck.py spread --workload write_hmac --runs 10
    python3 livebench/selfcheck.py counts --workload mixed_byz --seed 3

`spread` runs the workload once per seed (1..runs, untraced) and prints, per
end-to-end metric, the median and the distance between the first and third
quartiles as a share of the median. `counts` runs one seed traced twice and
fails unless every per-op count metric is identical and no request was
retransmitted.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-op count metrics: these must repeat exactly for one seed.
COUNT_METRICS = (
    "net.datagrams_per_op", "net.bytes_per_op", "net.encode_calls_per_op",
    "rpc.requests_per_op", "rpc.retransmit_ratio", "replica.msgs_per_flush",
    "replica.drops_per_op", "client.phases_per_write",
    "client.phases_per_read", "crypto.signs_per_op",
    "crypto.verifies_per_op", "crypto.macs_per_op",
    "crypto.cache_hit_ratio", "quorum.cert_checks_per_op",
)


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("%s seed %d: incorrect run: %s" % (workload, seed, result))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(args):
    runs = [run(args.workload, s, args.seconds, 0)
            for s in range(args.first_seed, args.first_seed + args.runs)]
    for name in runs[0]:
        values = [r[name] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        print("%-20s median %12.4f  iqr/median %6.3f  min %12.4f  max %12.4f"
              % (name, q2, (q3 - q1) / q2, min(values), max(values)))


def counts(args):
    a = run(args.workload, args.seed, args.seconds, 1)
    b = run(args.workload, args.seed, args.seconds, 1)
    bad = [n for n in COUNT_METRICS if a[n] != b[n]]
    for n in COUNT_METRICS:
        print("%-28s %14.6f %14.6f%s" % (n, a[n], b[n],
                                         "  DIFFERS" if n in bad else ""))
    if a["rpc.retransmit_ratio"] != 0 or b["rpc.retransmit_ratio"] != 0:
        bad.append("rpc.retransmit_ratio is not 0")
    if bad:
        sys.exit("count self-check failed: %s" % ", ".join(bad))
    print("count self-check passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("spread", "counts"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    (spread if args.mode == "spread" else counts)(args)


if __name__ == "__main__":
    main()
