"""The numpy side of the oracle: verify-read's seed-generated inputs and an
independent check of construct outputs, made without the package.

    python3 benchmark/matrices.py SEED DIR   # writes DIR/*.mat and DIR/oracles.json

run.py starts this as a child process rather than importing it. A child's
ru_maxrss includes the RSS of the process that spawned it, so the harness
keeps numpy and these matrices out of its own memory.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from workloads import Invocation, artefacts


def _sylvester(order: int) -> np.ndarray:
    h = np.ones((1, 1), dtype=np.int8)
    while len(h) < order:
        h = np.block([[h, h], [h, -h]])
    return h


def _paley1(p: int) -> np.ndarray:
    """Paley-I Hadamard matrix of order p+1, p prime, p = 3 mod 4."""
    chi = -np.ones(p, dtype=np.int8)
    chi[0] = 0
    chi[(np.arange(1, p) ** 2) % p] = 1
    s = np.zeros((p + 1, p + 1), dtype=np.int8)
    s[0, 1:] = 1
    s[1:, 0] = -1
    s[1:, 1:] = chi[(np.arange(p)[None, :] - np.arange(p)[:, None]) % p]
    return s + np.eye(p + 1, dtype=np.int8)


def _scramble(h: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A random Hadamard-equivalent copy: permute and negate rows and columns."""
    n = len(h)
    signs = np.array([-1, 1], dtype=np.int8)
    h = h[rng.permutation(n)][:, rng.permutation(n)]
    return h * rng.choice(signs, n)[:, None] * rng.choice(signs, n)[None, :]


def matrix_text(h: np.ndarray) -> bytes:
    n = len(h)
    chars = np.where(h < 0, ord("-"), ord("+")).astype(np.uint8)
    newline = np.full((n, 1), ord("\n"), dtype=np.uint8)
    return f"{n}\n".encode() + np.hstack([chars, newline]).tobytes()


def read_matrix(data: bytes) -> np.ndarray:
    header, _, body = data.partition(b"\n")
    n = int(header)
    chars = np.frombuffer(body.replace(b"\n", b""), dtype=np.uint8).reshape(n, n)
    return np.where(chars == ord("-"), -1, 1).astype(np.int8)


def _gram(h: np.ndarray) -> np.ndarray:
    f = h.astype(np.float32)  # |entries| <= n <= 2^24: float32 sums are exact
    return f @ f.T


def first_violation(h: np.ndarray) -> tuple[int, int] | None:
    """First row pair (i < j, in row-major order) with a nonzero dot product."""
    bad = np.argwhere(np.triu(_gram(h) != 0, 1))
    return (int(bad[0][0]), int(bad[0][1])) if len(bad) else None


def verify_read(seed: int, directory: Path) -> list[dict]:
    """Write the seed's verify-read matrices into ``directory``; return, per
    invocation, its key, its CLI arguments and the oracle for its exit code
    and stdout."""
    rng = np.random.default_rng(seed)
    bases = {
        "sylvester-1024": _sylvester(1024),
        "sylvester-2048": _sylvester(2048),
        "paley-1092": _paley1(1091),
        "paley-2028": _paley1(2027),
    }
    matrices = {name: _scramble(h, rng) for name, h in bases.items()}
    flipped = matrices["sylvester-2048"].copy()
    i, j = rng.integers(0, 2048, size=2)
    flipped[i, j] *= -1
    matrices["sylvester-2048-flipped"] = flipped

    entries = []
    for name, h in matrices.items():
        path = directory / f"{name}.mat"
        path.write_bytes(matrix_text(h))
        bad = first_violation(h)
        if name.endswith("-flipped"):
            if bad is None:
                raise AssertionError("a flipped entry left the matrix Hadamard")
            code, fields = 1, {"n": len(h), "hadamard": False, "violating_rows": list(bad)}
        else:
            if bad is not None:
                raise AssertionError(f"generated {name} is not Hadamard: rows {bad}")
            code, fields = 0, {"n": len(h), "hadamard": True, "excess": int(h.sum(dtype=np.int64))}
        entries.append({"key": f"verify {name}", "argv": ["verify", str(path)], "exit": code, "fields": fields})
    return entries


def _promise(inv: Invocation) -> tuple[int, int | None, set[int], str]:
    """Order, excess (None: the report's bound), row sums and classification
    the paper promises for the family's transformed matrix."""
    q, m = inv.q, inv.m
    if inv.family == "q3":
        return q + 1, (q + 1) * (2 * m + 1), {2 * m - 2, 2 * m + 2}, "biregular"
    if inv.family == "q1":
        return 2 * q + 2, None, {2 * m - 2, 2 * m + 2} if m % 2 else {2 * m, 2 * m + 4}, "biregular"
    return 4 * m * m, 8 * m ** 3, {2 * m}, "regular"


def check_construct(inv: Invocation, out: Path) -> list[str]:
    """Independent numpy check of a construct invocation's artefacts."""
    problems = []
    base_name, transformed_name, report_name = artefacts(inv)
    order, promised_excess, promised_sums, promised_class = _promise(inv)
    report = json.loads((out / report_name).read_bytes())
    matrices = {name: read_matrix((out / name).read_bytes()) for name in (base_name, transformed_name)}
    for name, h in matrices.items():
        n = len(h)
        if n != order:
            problems.append(f"{name}: order {n}, expected {order}")
        if not np.array_equal(_gram(h), n * np.eye(n, dtype=np.float32)):
            problems.append(f"{name}: H H^T != nI")
    h = matrices[transformed_name]
    excess = int(h.sum(dtype=np.int64))
    row_sums = set(h.sum(axis=1, dtype=np.int64).tolist())
    if promised_excess is not None and excess != promised_excess:
        problems.append(f"excess {excess}, expected {promised_excess}")
    if not row_sums <= promised_sums:
        problems.append(f"row sums {sorted(row_sums)} outside {sorted(promised_sums)}")
    if not (report["excess"] == report["bound"] == excess):
        problems.append(f"report excess {report['excess']} / bound {report['bound']}, numpy excess {excess}")
    if not report["classification"].startswith(promised_class):
        problems.append(f"classification {report['classification']}, expected {promised_class}")
    return problems


if __name__ == "__main__":
    seed, directory = int(sys.argv[1]), Path(sys.argv[2])
    (directory / "oracles.json").write_text(json.dumps(verify_read(seed, directory)))
