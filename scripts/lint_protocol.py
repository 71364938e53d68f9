#!/usr/bin/env python3
"""Protocol-invariant lints for the BFT-BC tree.

clang-tidy enforces generic C++ hygiene; this script enforces the
repo-specific invariants the protocol's safety argument leans on but no
generic tool can express:

  raw-verify
      All signature verification in protocol code must route through
      Keystore::verify_cached (certificates are transferable proofs whose
      2f+1 signatures are re-checked at every hop — the memo is the whole
      §3.3.2 cost story). Raw Keystore::verify / rsa_verify / hmac_verify
      calls are allowed only inside src/crypto/ itself. Touching
      VerifyCache (or the keystore's verify_cache() accessor) directly
      is flagged too: it skips the sig_cache_hit/miss counters the perf
      trajectory tracks.
      Scope: src/ except src/crypto/.

  single-thread
      Every binary runs one thread, so the keystore (verify cache and
      counters), the metrics registry and the logger carry no locks. A
      second thread anywhere in the program would race on them: no
      std::thread, std::jthread, std::async or pthread_create.
      Scope: src/ and tools/.

  nondeterminism
      Simulation and protocol code must stay deterministic for a fixed
      seed: no std::random_device, rand()/srand(), time(), or
      std::chrono::system_clock. Randomness comes from util/rng.h (seeded)
      and time from the simulator's virtual clock.
      Scope: src/bftbc/, src/quorum/, src/sim/.

  unchecked-result-value
      Result<T>::value() asserts is_ok() only in debug builds; in release
      it reads the wrong variant. Protocol code must check before
      unwrapping: a `.value()` call whose receiver has no visible ok-check
      (is_ok / has_value / value_or / explicit bool test / gtest ASSERT)
      within the preceding window is flagged.
      Scope: src/.

  replica-state-mutation
      All replica per-object state mutations go through the ObjectState
      accessors in replica_state.h (try_prepare / try_opt_prepare /
      apply_write / absorb_write_certificate) — Lemma 1 is an induction
      over exactly those transitions. Reaching for the underlying members
      (plist_, optlist_, write_ts_, data_, pcert_) or const_casting an
      ObjectState outside replica_state.{h,cpp} breaks the audit trail.
      Scope: src/bftbc/ except replica_state.{h,cpp}.

Suppressions: a line containing `bftbc-lint: allow(<rule>) -- <why>`
(in a comment) is exempt from <rule>. The justification is mandatory: a
bare allow() suppresses nothing and is itself reported (rule
`suppression`). Shared with scripts/analyze/ — one syntax for both
tools.

Usage:
  lint_protocol.py [--root DIR]          # lint DIR/src and DIR/tools
                                         # (default: repo root)
  lint_protocol.py [--root DIR] FILE...  # lint specific files (paths are
                                         # interpreted relative to --root
                                         # for rule scoping)

Exit status: 0 if clean, 1 if any finding, 2 on usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from analyze import suppressions  # noqa: E402

CXX_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")

# Strip // comments and string literals before matching so commented-out
# code and log text cannot trip a rule. (Block comments are handled
# line-locally: good enough for this codebase's style.)
LINE_NOISE_RE = re.compile(r'//.*$|"(?:[^"\\]|\\.)*"')


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _scrub(line: str) -> str:
    return LINE_NOISE_RE.sub("", line)


# ----------------------------------------------------------- raw-verify

RAW_VERIFY_RE = re.compile(
    r"""(?:
          (?:\bkeystore\s*\(\s*\)|\w*[Kk]eystore\w*|\bks_?\b)\s*(?:\.|->)\s*verify\s*\(
        | \brsa_verify\s*\(
        | \bhmac_verify\s*\(
        | \bVerifyCache\b
        | (?:\.|->)\s*verify_cache\s*\(\s*\)
        )""",
    re.VERBOSE,
)


def check_raw_verify(rel, lines, findings):
    if not rel.startswith("src/") or rel.startswith("src/crypto/"):
        return
    for i, line in enumerate(lines, 1):
        if RAW_VERIFY_RE.search(_scrub(line)):
            findings.append(
                Finding(
                    rel,
                    i,
                    "raw-verify",
                    "raw signature verification bypasses "
                    "Keystore::verify_cached (memoized path); only "
                    "src/crypto/ may call the primitives directly",
                )
            )


# -------------------------------------------------------- single-thread

SINGLE_THREAD_SCOPES = ("src/", "tools/")
THREAD_START_RE = re.compile(
    r"\bstd\s*::\s*(?:thread|jthread|async)\b|\bpthread_create\s*\("
)


def check_single_thread(rel, lines, findings):
    if not rel.startswith(SINGLE_THREAD_SCOPES):
        return
    for i, line in enumerate(lines, 1):
        if THREAD_START_RE.search(_scrub(line)):
            findings.append(
                Finding(
                    rel,
                    i,
                    "single-thread",
                    "starts a second thread; the keystore, metrics registry "
                    "and logger are unsynchronised, so src/ and tools/ "
                    "stay single-threaded",
                )
            )


# ------------------------------------------------------- nondeterminism

NONDET_SCOPES = ("src/bftbc/", "src/quorum/", "src/sim/")
NONDET_PATTERNS = (
    (re.compile(r"\bstd\s*::\s*random_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w.:>])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"(?:\bstd\s*::\s*|(?<![\w.:>]))time\s*\("), "time()"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
)


def check_nondeterminism(rel, lines, findings):
    if not rel.startswith(NONDET_SCOPES):
        return
    for i, line in enumerate(lines, 1):
        scrubbed = _scrub(line)
        for pattern, what in NONDET_PATTERNS:
            if pattern.search(scrubbed):
                findings.append(
                    Finding(
                        rel,
                        i,
                        "nondeterminism",
                        f"{what} in deterministic simulation/protocol code; "
                        "use util/rng.h (seeded) or the simulator's virtual "
                        "clock",
                    )
                )


# ----------------------------------------------- unchecked-result-value

VALUE_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*value\s*\(\s*\)")
CHECK_WINDOW = 10  # lines of context (incl. the call line) searched back


def _receiver_checked(var: str, window: list[str]) -> bool:
    text = "\n".join(window)
    checks = (
        rf"\b{re.escape(var)}\s*\.\s*is_ok\s*\(\)",
        rf"\b{re.escape(var)}\s*\.\s*has_value\s*\(\)",
        rf"\b{re.escape(var)}\s*\.\s*value_or\s*\(",
        rf"if\s*\(\s*!?\s*{re.escape(var)}\s*[\)&|]",   # if (r) / if (!r) ...
        rf"\b{re.escape(var)}\s*\?",                    # r ? r.value() : ...
        rf"(?:ASSERT|EXPECT)_(?:TRUE|FALSE)\s*\(\s*!?\s*{re.escape(var)}\b",
        rf"while\s*\(\s*!?\s*{re.escape(var)}\s*[\)&|]",
    )
    return any(re.search(c, text) for c in checks)


def check_unchecked_result_value(rel, lines, findings):
    if not rel.startswith("src/"):
        return
    for i, line in enumerate(lines, 1):
        scrubbed = _scrub(line)
        for m in VALUE_CALL_RE.finditer(scrubbed):
            var = m.group(1)
            window = [
                _scrub(l) for l in lines[max(0, i - CHECK_WINDOW) : i]
            ]
            if not _receiver_checked(var, window):
                findings.append(
                    Finding(
                        rel,
                        i,
                        "unchecked-result-value",
                        f"'{var}.value()' without a visible ok-check within "
                        f"{CHECK_WINDOW} lines; check is_ok() (or use "
                        "value_or / take after a check) before unwrapping",
                    )
                )


# ---------------------------------------------- replica-state-mutation

STATE_MEMBER_RE = re.compile(
    r"(?:\.|->)\s*(?:plist_|optlist_|write_ts_|data_|pcert_)\b"
)
STATE_CONST_CAST_RE = re.compile(r"const_cast\s*<[^>]*ObjectState")


def check_replica_state_mutation(rel, lines, findings):
    if not rel.startswith("src/bftbc/"):
        return
    if os.path.basename(rel) in ("replica_state.h", "replica_state.cpp"):
        return
    for i, line in enumerate(lines, 1):
        scrubbed = _scrub(line)
        if STATE_MEMBER_RE.search(scrubbed) or STATE_CONST_CAST_RE.search(
            scrubbed
        ):
            findings.append(
                Finding(
                    rel,
                    i,
                    "replica-state-mutation",
                    "replica per-object state must be mutated through the "
                    "ObjectState accessors in replica_state.h, not by "
                    "touching its members directly",
                )
            )


CHECKS = (
    check_raw_verify,
    check_single_thread,
    check_nondeterminism,
    check_unchecked_result_value,
    check_replica_state_mutation,
)


def lint_file(root: str, rel: str) -> list[Finding]:
    path = os.path.join(root, rel)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return [Finding(rel, 0, "io", f"unreadable: {e}")]

    findings: list[Finding] = []
    for check in CHECKS:
        check(rel.replace(os.sep, "/"), lines, findings)

    supps = suppressions.scan_lines(lines)
    kept = [
        f
        for f in findings
        if not suppressions.is_suppressed(supps, f.line, f.rule)
    ]
    for s in suppressions.unjustified(supps):
        kept.append(
            Finding(
                rel.replace(os.sep, "/"),
                s.line,
                "suppression",
                "suppression without justification — write "
                "`bftbc-lint: allow(rule) -- why it is safe here`",
            )
        )
    return kept


def discover(root: str) -> list[str]:
    rels = []
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    rels.append(
                        os.path.relpath(os.path.join(dirpath, name), root)
                    )
    return rels


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="BFT-BC protocol-invariant lints"
    )
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repo root; rule scoping is relative to this (default: the "
        "checkout containing this script)",
    )
    parser.add_argument(
        "files",
        nargs="*",
        help="specific files to lint (default: every C++ file under "
        "<root>/src and <root>/tools)",
    )
    args = parser.parse_args(argv[1:])

    root = os.path.abspath(args.root)
    if args.files:
        rels = []
        for f in args.files:
            p = os.path.abspath(f)
            if not p.startswith(root + os.sep):
                print(
                    f"error: {f} is outside --root {root}", file=sys.stderr
                )
                return 2
            rels.append(os.path.relpath(p, root))
    else:
        rels = discover(root)

    findings: list[Finding] = []
    for rel in rels:
        findings.extend(lint_file(root, rel))

    for f in findings:
        print(f)
    if findings:
        print(
            f"lint_protocol: {len(findings)} finding(s) in "
            f"{len(rels)} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"lint_protocol: OK ({len(rels)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
