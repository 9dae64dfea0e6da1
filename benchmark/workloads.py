"""The benchmark's workloads: which CLI invocations each one runs, and the
oracle every output is checked against.

Construct and scheme invocations have fixed inputs, so their oracle is the
sha256 of stdout and of every artefact, recorded once in golden.json after
an independent numpy check (``matrices.check_construct``).  verify-read's
inputs come from the seed, so matrices.py generates them together with an
oracle computed by numpy, independently of the package.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

OUT = "{out}"  # replaced by the pass's fresh output directory


@dataclass(frozen=True)
class Invocation:
    key: str                # names the invocation in golden.json and in failures
    argv: tuple[str, ...]   # arguments after ``python -m qrhadamard``
    family: str = ""        # construct only: family, q and m of the instance
    q: int = 0
    m: int = 0


def _construct(family: str, q: int, m: int) -> Invocation:
    if family == "regular":
        argv = ("construct", "--family", family, "--m", str(m), "--partition", f"schemes/m{m}.scheme")
    else:
        argv = ("construct", "--family", family, "--q", str(q))
    return Invocation(f"construct {family} q={q}", argv + ("--out", OUT), family, q, m)


SMALL_LADDER = (
    [_construct("q3", q, m) for q, m in ((11, 1), (27, 2), (83, 4), (227, 7))]
    + [_construct("q1", q, m) for q, m in ((5, 1), (13, 2), (25, 3), (41, 4), (61, 5), (113, 7), (181, 9))]
    + [_construct("regular", q, m) for q, m in ((17, 3), (49, 5))]
)

LARGE_CONSTRUCT = [_construct("q3", 1091, 16), _construct("q1", 841, 20)]

# The default --budget (1000000) is below 4^10, so the m = 5 search names its budget.
SCHEME_SEARCH = [
    Invocation("scheme search m=5 e=20", ("scheme", "--search", "--m", "5", "--e", "20", "--budget", "1048576")),
    Invocation("scheme search m=3 e=12", ("scheme", "--search", "--m", "3", "--e", "12")),
    Invocation("scheme verify m=3", ("scheme", "--verify", "schemes/m3.scheme")),
    Invocation("scheme verify m=5", ("scheme", "--verify", "schemes/m5.scheme")),
]

FIXED = {"small-ladder": SMALL_LADDER, "large-construct": LARGE_CONSTRUCT, "scheme-search": SCHEME_SEARCH}
NAMES = ["small-ladder", "large-construct", "verify-read", "scheme-search"]

# Partitions each search prints (the shipped m3/m5 schemes are among them).
SEARCH_FOUND = {"scheme search m=5 e=20": 20, "scheme search m=3 e=12": 12}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artefacts(inv: Invocation) -> list[str]:
    if not inv.family:
        return []
    return [f"{inv.family}_q{inv.q}_{suffix}" for suffix in ("base.mat", "transformed.mat", "report.json")]


def check(oracle: dict, code: int, stdout: bytes, out: Path) -> str | None:
    """Why the invocation's result differs from its oracle, or None."""
    if code != oracle["exit"]:
        return f"exit {code}, expected {oracle['exit']}"
    if "stdout" in oracle and sha256(stdout) != oracle["stdout"]:
        return "stdout sha256 differs from golden"
    for name, digest in oracle.get("files", {}).items():
        path = out / name
        if not path.is_file():
            return f"{name} not written"
        if sha256(path.read_bytes()) != digest:
            return f"{name} sha256 differs from golden"
    if "fields" in oracle:
        try:
            payload = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        for name, want in oracle["fields"].items():
            if payload.get(name) != want:
                return f"{name} = {payload.get(name)!r}, expected {want!r}"
    return None


def check_scheme(inv: Invocation, stdout: bytes) -> list[str]:
    """Independent check of a scheme invocation's stdout."""
    if inv.key in SEARCH_FOUND:
        found = sum(1 for block in stdout.decode().split("\n\n") if block.strip())
        want = SEARCH_FOUND[inv.key]
        return [] if found == want else [f"{found} partitions printed, expected {want}"]
    report = json.loads(stdout)
    return [] if report["is_scheme"] and report["table1_match"] else ["scheme verification failed"]
