#!/usr/bin/env python3
"""Byte-identical check of two builds of this repository.

    scripts/compare_builds.py OLD_BUILD NEW_BUILD

A refactor must not change what any deterministic surface prints. This
script runs each surface on both build trees (CMake binary dirs) and
prints, per surface, `same` or what differs. A JSON surface lists every
differing path, up to 20, then a count of the rest, so an intended
difference cannot hide a second one; a text surface names its first
differing line.

Surfaces:
  - explorer sweeps: the two CI smoke commands (uniform, and guided over
    the clean corpus entries), `--runs 2000` at seeds 1, 7, 42, 77 and
    1234, and `--runs 1000 --guided` at seeds 7 and 42 over a fresh copy
    of the full corpus/ (the saved corpora are compared too);
  - `bftbc_explore --replay` of every corpus/*.json;
  - every bench/bench_* `--smoke --json` report; bench_auth_cost's
    "gauges" hold wall-clock timings and are left out;
  - the stdout of every example.

Exit codes and outputs are compared for every command. Each build runs
in its own scratch directory with identical relative paths, so reports
that name artifact files compare as well.

Exit status: 0 when every surface matches, 1 when any differs, 2 on a
usage error.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(REPO, "corpus")

UNIFORM_SEEDS = (1, 7, 42, 77, 1234)
GUIDED_SEEDS = (7, 42)

# JSON keys left out per bench: wall-clock measurements differ run to run.
BENCH_IGNORED_KEYS = {"bench_auth_cost": ("gauges",)}

# Differing paths listed per JSON surface; the rest are counted.
MAX_LISTED = 20


def _show(value, limit=60):
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= limit else text[:limit] + "..."


def json_differences(old, new, path="$"):
    """Yields every differing path (keys in sorted order, list items in
    order) with both values; nothing when the documents are equal."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            where = f"{path}.{key}"
            if key not in new:
                yield f"{where}: only in OLD"
            elif key not in old:
                yield f"{where}: only in NEW"
            else:
                yield from json_differences(old[key], new[key], where)
    elif isinstance(old, list) and isinstance(new, list):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from json_differences(a, b, f"{path}[{i}]")
        if len(old) != len(new):
            yield f"{path}: length {len(old)} != {len(new)}"
    elif type(old) is not type(new) or old != new:
        yield f"{path}: {_show(old)} != {_show(new)}"


def compare_json_text(old_text, new_text, ignored_keys=()):
    """None when two JSON documents match byte for byte (after dropping
    `ignored_keys` from the top-level object). Else the one difference,
    or a count followed by up to MAX_LISTED differences, one per line."""
    try:
        old = json.loads(old_text)
        new = json.loads(new_text)
    except ValueError as e:
        return f"not JSON: {e}"
    if not ignored_keys and old_text == new_text:
        return None
    for key in ignored_keys:
        if isinstance(old, dict):
            old.pop(key, None)
        if isinstance(new, dict):
            new.pop(key, None)
    diffs = list(json_differences(old, new))
    if not diffs:
        return None if ignored_keys else "same JSON, different bytes"
    if len(diffs) == 1:
        return diffs[0]
    lines = [f"{len(diffs)} differences"] + diffs[:MAX_LISTED]
    if len(diffs) > MAX_LISTED:
        lines.append(f"and {len(diffs) - MAX_LISTED} more")
    return "\n  ".join(lines)


def compare_text(old_text, new_text):
    """None when equal, else the first differing line."""
    if old_text == new_text:
        return None
    old_lines = old_text.splitlines()
    new_lines = new_text.splitlines()
    for i, (a, b) in enumerate(zip(old_lines, new_lines)):
        if a != b:
            return f"line {i + 1}: {a[:80]!r} != {b[:80]!r}"
    if len(old_lines) != len(new_lines):
        return f"{len(old_lines)} lines != {len(new_lines)} lines"
    return "trailing newline differs"


def compare_dirs(old_dir, new_dir):
    """None when both directories hold the same file names and bytes."""
    old_names = sorted(os.listdir(old_dir)) if os.path.isdir(old_dir) else []
    new_names = sorted(os.listdir(new_dir)) if os.path.isdir(new_dir) else []
    if old_names != new_names:
        only_old = sorted(set(old_names) - set(new_names))
        only_new = sorted(set(new_names) - set(old_names))
        return f"file sets differ: only OLD {only_old[:3]}, only NEW {only_new[:3]}"
    for name in old_names:
        with open(os.path.join(old_dir, name), "rb") as f:
            a = f.read()
        with open(os.path.join(new_dir, name), "rb") as f:
            b = f.read()
        if a != b:
            return f"{name}: contents differ"
    return None


class Side:
    """One build tree plus the scratch directory its commands run in."""

    def __init__(self, build, scratch):
        self.build = os.path.abspath(build)
        self.scratch = scratch

    def workdir(self, surface):
        path = os.path.join(self.scratch, surface)
        os.makedirs(path, exist_ok=True)
        return path

    def start(self, surface, argv):
        cwd = self.workdir(surface)
        return subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)


def run_pair(old, new, surface, argv_of):
    """Runs the surface on both sides at once; returns the two
    (exit code, stdout, workdir) triples."""
    procs = [(side, side.start(surface, argv_of(side))) for side in (old, new)]
    results = []
    for side, proc in procs:
        out, _ = proc.communicate()
        results.append((proc.returncode, out.decode("utf-8", "replace"),
                        side.workdir(surface)))
    return results


def read(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError:
        return None


def exit_difference(a, b):
    return None if a[0] == b[0] else f"exit {a[0]} != {b[0]}"


def copy_corpus(dest, clean_only):
    os.makedirs(dest, exist_ok=True)
    for name in sorted(os.listdir(CORPUS)):
        if not name.endswith(".json"):
            continue
        src = os.path.join(CORPUS, name)
        if clean_only and '"expect": "clean"' not in read(src):
            continue
        shutil.copy(src, os.path.join(dest, name))


def explorer(side):
    return os.path.join(side.build, "tools", "bftbc_explore")


def explorer_surfaces(old, new):
    def sweep(surface, flags, corpus=None, clean_only=False):
        for side in (old, new):
            if corpus is not None:
                copy_corpus(os.path.join(side.workdir(surface), corpus),
                            clean_only)
        a, b = run_pair(old, new, surface,
                        lambda side: [explorer(side)] + flags +
                        ["--json", "report.json"])
        diff = exit_difference(a, b) or compare_json_text(
            read(os.path.join(a[2], "report.json")) or "",
            read(os.path.join(b[2], "report.json")) or "")
        if diff is None and corpus is not None:
            diff = compare_dirs(os.path.join(a[2], corpus),
                                os.path.join(b[2], corpus))
        return diff

    yield "explore ci-smoke uniform", sweep(
        "ci-uniform", ["--runs", "10", "--seed", "7",
                       "--artifacts", "explore-a"])
    yield "explore ci-smoke guided", sweep(
        "ci-guided", ["--runs", "10", "--seed", "7", "--guided",
                      "--corpus", "corpus-a", "--artifacts", ""],
        corpus="corpus-a", clean_only=True)
    for seed in UNIFORM_SEEDS:
        yield f"explore --runs 2000 --seed {seed}", sweep(
            f"uniform-{seed}", ["--runs", "2000", "--seed", str(seed)])
    for seed in GUIDED_SEEDS:
        yield f"explore --runs 1000 --guided --seed {seed}", sweep(
            f"guided-{seed}", ["--runs", "1000", "--seed", str(seed),
                               "--guided", "--corpus", "corpus"],
            corpus="corpus")


def replay_surfaces(old, new):
    for name in sorted(os.listdir(CORPUS)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(CORPUS, name)
        a, b = run_pair(old, new, f"replay-{name}",
                        lambda side: [explorer(side), "--replay", path])
        yield f"replay {name}", exit_difference(a, b) or compare_text(a[1],
                                                                      b[1])


def executables(directory, prefix=""):
    if not os.path.isdir(directory):
        return []
    return sorted(
        name for name in os.listdir(directory)
        if name.startswith(prefix)
        and os.path.isfile(os.path.join(directory, name))
        and os.access(os.path.join(directory, name), os.X_OK))


def bench_surfaces(old, new):
    names = sorted(set(executables(os.path.join(old.build, "bench"), "bench_"))
                   | set(executables(os.path.join(new.build, "bench"),
                                     "bench_")))
    for name in names:
        a, b = run_pair(old, new, name,
                        lambda side: [os.path.join(side.build, "bench", name),
                                      "--smoke", "--json", "report.json"])
        yield f"{name} --smoke --json", exit_difference(a, b) or \
            compare_json_text(read(os.path.join(a[2], "report.json")) or "",
                              read(os.path.join(b[2], "report.json")) or "",
                              BENCH_IGNORED_KEYS.get(name, ()))


def example_surfaces(old, new):
    names = sorted(set(executables(os.path.join(old.build, "examples")))
                   | set(executables(os.path.join(new.build, "examples"))))
    for name in names:
        a, b = run_pair(old, new, f"example-{name}",
                        lambda side: [os.path.join(side.build, "examples",
                                                   name)])
        yield f"example {name}", exit_difference(a, b) or compare_text(a[1],
                                                                       b[1])


def main(argv):
    if len(argv) != 3 or not all(os.path.isdir(p) for p in argv[1:]):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    scratch = tempfile.mkdtemp(prefix="compare_builds.")
    try:
        old = Side(argv[1], os.path.join(scratch, "old"))
        new = Side(argv[2], os.path.join(scratch, "new"))
        differing = 0
        for surfaces in (explorer_surfaces, replay_surfaces, bench_surfaces,
                         example_surfaces):
            for name, diff in surfaces(old, new):
                print(f"{name}: {'same' if diff is None else diff}",
                      flush=True)
                differing += diff is not None
        print(f"{differing} surface(s) differ")
        return 1 if differing else 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
