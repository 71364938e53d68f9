"""The protocol-specific model the checks run against.

Names are matched as suffixes of the (best-effort) qualified name so
that both fully resolved calls (`bftbc::crypto::Keystore::verify_cached`)
and dependent/template calls where only the spelling survives
(`verify_cached`) hit the same entry.
"""

from __future__ import annotations

import re

from .ir import RAW, WELLFORMED, VERIFIED  # noqa: F401  (re-exported)

_ = RAW  # silence linters; levels are part of this module's interface


def _suffix_re(patterns):
    return [re.compile(p + r"$") for p in patterns]


class Config:
    # Values produced by these calls came straight off the wire.
    SOURCES = _suffix_re(
        [
            r"::decode",
            r"\bdecode",
            r"Reader::get_(u8|u16|u32|u64|varint|bool|bytes|string|raw)",
            # util/codec.h's field-list codec: one field in its wire form
            # (Message<T>::decode is matched by ::decode above).
            r"wire::get",
            r"::decode_signature_set",
        ]
    )
    # Sources returning std::optional whose verdict must be consulted.
    OPTIONAL_SOURCES = _suffix_re([r"::decode", r"\bdecode"])

    # OS receive calls tainting out-arguments: name -> arg indices.
    # One origin per call links the buffer to the peer address, so a
    # wellformedness check on anything decoded from the buffer vouches
    # for the whole datagram.
    SOURCE_OUT_ARGS = {
        "recvfrom": (1, 4),
        "recv": (1,),
        "recvmsg": (1,),
        "read": (1,),
    }

    # Parameters of these types arrive tainted (the dispatch path hands
    # decoded-but-unverified envelopes to the handlers).
    TAINTED_PARAM_TYPES = ("rpc::Envelope", "Envelope")

    # Cryptographic verification entry points (the roots; wrappers are
    # discovered interprocedurally via summaries).
    VERIFIER_ROOTS = _suffix_re(
        [
            r"Keystore::verify",
            r"Keystore::verify_cached",
            r"Keystore::mac_check",
            r"Certificate::validate",
            r"PrepareCertificate::validate",
            r"WriteCertificate::validate",
            r"::validate_signature_quorum",
            r"\bvalidate_signature_quorum",
        ]
    )

    # Decode-verdict checks (upgrade RAW -> WELLFORMED).
    WELLFORMED_CHECKS = frozenset(
        {"has_value", "ok", "done", "at_end", "is_ok"}
    )

    # Methods whose result is by construction the entire signed message:
    # passing x->signing_payload() to a verifier blesses all of x.
    PAYLOAD_METHODS = frozenset({"signing_payload"})

    # Protocol-state sinks and the taint level required to enter them.
    SINKS = [
        (re.compile(p + r"$"), lvl)
        for p, lvl in [
            (r"ObjectState::try_prepare", VERIFIED),
            (r"ObjectState::try_opt_prepare", VERIFIED),
            (r"ObjectState::apply_write", VERIFIED),
            (r"ObjectState::absorb_write_certificate", VERIFIED),
            (r"KvStore::put", VERIFIED),
            (r"KvStore::erase", VERIFIED),
        ]
    ]

    # Member fields that are sinks when assigned (root member name).
    # learned_ is the transport's reply-routing table: a datagram must
    # at least decode to a wellformed envelope before its forgeable
    # source header may steer where replies go.
    SINK_FIELDS = {"learned_": WELLFORMED}

    # Path scoping (repo-relative, '/'-separated).
    TAINT_SCOPE = ("src/",)
    TAINT_EXCLUDE = ("src/baselines/",)  # intentionally-weak protocols
    DET_SCOPE = ("src/bftbc/", "src/quorum/", "src/sim/")
    LOCK_SCOPE = ("src/",)
    SWITCH_SCOPE = ("src/",)

    # Only switches over protocol enums are held to the dispatch rule.
    SWITCH_ENUM_PREFIX = "bftbc::"

    # AST-level determinism: banned in DET_SCOPE. Bare libc names are
    # anchored on both sides so e.g. a simulator's own virtual `time`
    # accessor (qualified bftbc::sim::...) never trips the rule — the
    # precision win over the regex lint this check supersedes.
    BANNED_CALLS = [
        re.compile(p)
        for p in [
            r"^(::|std::)?rand$",
            r"^(::|std::)?srand$",
            r"^(::|std::)?time$",
            r"system_clock::now$",
            r"random_device::operator\(\)$",
        ]
    ]
    BANNED_DECL_TYPES = ("random_device",)

    def __init__(self, scope_all: bool = False):
        # Fixture mode: path scoping off, every check everywhere.
        self.scope_all = scope_all

    # ------------------------------------------------------- queries

    def is_source(self, name: str) -> bool:
        return any(r.search(name) for r in self.SOURCES)

    def source_is_optional(self, name: str) -> bool:
        return any(r.search(name) for r in self.OPTIONAL_SOURCES)

    def source_out_args(self, name: str):
        base = name.rsplit("::", 1)[-1]
        return self.SOURCE_OUT_ARGS.get(base, ())

    def tainted_param(self, type_spelling: str) -> bool:
        t = type_spelling.replace("const ", "").replace("&", "").strip()
        return any(t.endswith(x) for x in self.TAINTED_PARAM_TYPES)

    def is_verifier_root(self, name: str) -> bool:
        return any(r.search(name) for r in self.VERIFIER_ROOTS)

    def sink_level(self, name: str):
        for r, lvl in self.SINKS:
            if r.search(name):
                return lvl
        return None

    def sink_field_level(self, target_path):
        for part in target_path:
            if part in self.SINK_FIELDS:
                return self.SINK_FIELDS[part]
        return None

    @property
    def wellformed_checks(self):
        return self.WELLFORMED_CHECKS

    @property
    def payload_methods(self):
        return self.PAYLOAD_METHODS

    def boolish_return(self, return_type: str) -> bool:
        return "bool" in return_type or "Status" in return_type

    def is_banned_call(self, name: str) -> bool:
        return any(r.search(name) for r in self.BANNED_CALLS)

    def in_scope(self, rel: str, scope, exclude=()) -> bool:
        if self.scope_all:
            return True
        rel = rel.replace("\\", "/")
        if any(rel.startswith(e) for e in exclude):
            return False
        return any(rel.startswith(s) for s in scope)
