#!/usr/bin/env python3
"""Check that the tests kill hand-made mutants of the exact decision code.

    python scripts/mutants.py

Each entry makes one exact string replacement in one file of a temporary
copy of ``src/`` and runs its test file against that copy with
``pytest -x``; the mutant is killed when the tests fail.  Each test file
first runs once against the unchanged copy, and must pass there, so that a
kill means the replacement broke something.  An entry whose old text is not
in its file exactly once is stale.

Exit 1 if an entry is stale, a test file fails on the unchanged copy, a
mutant survives without a status, or a mutant marked ``equivalent`` or
``unresolved`` is killed (its mark is out of date).  Exit 0 otherwise.
Needs only the stdlib and pytest.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# status None: the test file must fail.  "equivalent" or "unresolved": it may
# pass, for the reason given
Mutant = namedtuple("Mutant", "name path old new tests status reason", defaults=(None, None))

MUTANTS = [
    Mutant(
        "transform-tie-rule", "hadamard.py",
        "if sums[i] <= 0)", "if sums[i] < 0)",
        "tests/test_hadamard.py",
    ),
    Mutant(
        "admissible-h-without-eps-delta", "intersection_sets.py",
        "h = (ell + 5 * eps * delta - 2) // 2 % 4", "h = (ell + 5 - 2) // 2 % 4",
        "tests/test_intersection_sets.py",
    ),
    Mutant(
        "admissible-params-half-a-period", "intersection_sets.py",
        "range(1, 2 * (ext.subfield.q + 1))", "range(1, ext.subfield.q + 1)",
        "tests/test_intersection_sets.py",
    ),
    Mutant(
        "group-certificate-without-distinctness", "matrix.py",
        "        if seen[coord]:\n            return False\n", "",
        "tests/test_hadamard.py",
    ),
    Mutant(
        "group-certificate-without-weights", "matrix.py",
        "        if u and u.bit_count() != half:\n            return False\n", "",
        "tests/test_hadamard.py",
    ),
    Mutant(
        "scan-passes-rows-closer-than-half", "matrix.py",
        "if (ri ^ rows[j]).bit_count() != half:", "if (ri ^ rows[j]).bit_count() > half:",
        "tests/test_hadamard.py",
    ),
    Mutant(
        "certificate-without-sigma-xor-test", "matrix.py",
        "        if not all(image(r) ^ rows[t] in masks for r, t in zip(rows, target)):\n            continue\n", "",
        "tests/test_hadamard.py",
    ),
    Mutant(
        "violation-without-odd-order-refusal", "matrix.py",
        "    if n % 2 and n > 1:\n        return (0, 1)\n", "",
        "tests/test_hadamard.py",
    ),
    Mutant(
        "walk-digit-0-raise-without-mod-p", "finite_field.py",
        "zech[k] = w - x[0] + (x[0] + 1) % p", "zech[k] = w + 1",
        "tests/test_finite_field.py",
    ),
    Mutant(
        "walk-index-digits-reversed", "finite_field.py",
        "digits = [p**j for j in range(f)]", "digits = [p ** (f - 1 - j) for j in range(f)]",
        "tests/test_finite_field.py",
    ),
    Mutant(
        "norm-exponent-off-by-one", "finite_field.py",
        "(p**f - 1) // (p - 1), mod, p)", "(p**f - 1) // (p - 1) - 1, mod, p)",
        "tests/test_finite_field.py",
    ),
    Mutant(
        "primitive-search-skips-the-b-x-block-unconditionally", "finite_field.py",
        "not any(head) and pow(mod[0], (p - 1) // 2, p) == 1:", "not any(head):",
        "tests/test_finite_field.py",
    ),
    Mutant(
        "tower-zech-back-map-index", "finite_field.py",
        "r = self._back[0 if a == ZERO else (a - b) % so + 1]", "r = self._back[0 if a == ZERO else (b - a) % so + 1]",
        "tests/test_finite_field.py",
    ),
    Mutant(
        "tower-zech-after-the-back-map", "finite_field.py",
        "(b - self._coords_b[r])", "(self._coords_b[r] - b)",
        "tests/test_finite_field.py",
    ),
    Mutant(
        "tower-trace-of-a-zero-relative-trace", "finite_field.py",
        "        if rel == ZERO:\n            return 0\n", "        if rel == ZERO:\n            return 1\n",
        "tests/test_finite_field.py",
    ),
    Mutant(
        "factor-misses-a-square-prime", "finite_field.py",
        "while d * d <= n:", "while d * d < n:",
        "tests/test_finite_field.py",
    ),
    Mutant(
        "prime-power-accepts-an-empty-factorization", "finite_field.py",
        "if len(fac) != 1:", "if len(fac) > 1:",
        "tests/test_finite_field.py",
    ),
    Mutant(
        "tower-entries-take-any-field", "finite_field.py",
        "        if self.subfield is None:\n            raise InputError(f\"GF({self.p}^{self.f}) is not a quadratic tower GF(q) in GF(q^2)\")\n",
        "",
        "tests/test_cli.py",
    ),
    Mutant(
        "gauss-period-pairs-eta-not-flipped", "character_sums.py",
        "((r + q + 1) % e, -1)", "((r + q + 1) % e, 1)",
        "tests/test_character_sums.py",
    ),
    Mutant(
        "gauss-signs-from-the-upper-half-of-the-pairs", "character_sums.py",
        "pairs[: order // 2]", "pairs[order // 2 :]",
        "tests/test_character_sums.py",
    ),
    Mutant(
        "order8-sign-vector-last-delta-negated", "character_sums.py",
        "want = (eps * (2 * m + 1), delta, 0, delta)", "want = (eps * (2 * m + 1), delta, 0, -delta)",
        "tests/test_character_sums.py",
    ),
    Mutant(
        "regular-family-without-its-partition", "intersection_sets.py",
        "        if partition is None:\n            raise InputError(f\"the {family} family needs a scheme partition\")\n", "",
        "tests/test_hadamard.py",
    ),
    Mutant(
        "table1-miss-least-residue-of-each-dual-class-only", "association_schemes.py",
        "for r in sorted({dual[j] for j in h_lists[i - 1]}):",
        "for r in sorted({dual[j] for j in h_lists[i - 1]})[:1]:",
        "tests/test_association_schemes.py",
    ),
    Mutant(
        "bannai-muzychuk-fewer-dual-classes", "association_schemes.py",
        "len(dual_rows) == 4,", "len(dual_rows) <= 4,",
        "tests/test_association_schemes.py",
        "equivalent",
        "with every class nonempty (checked in the same conjunction) there are never fewer than "
        "four rows: the Fourier transforms of {0} and the four disjoint nonempty classes are "
        "independent and constant on the classes of equal rows, and only a = 0 has the class-size "
        "row; every shifted partition at m = 3 (e = 4, 12) and m = 5 (e = 20) has at least four",
    ),
    Mutant(
        "excess-report-biregular-with-zero-low-sum-refused", "matrix.py",
        "elif len(values) == 2 and values[0] >= 0:", "elif len(values) == 2 and values[0] > 0:",
        "tests/test_hadamard.py",
    ),
    Mutant(
        "from-text-accepts-long-rows", "matrix.py",
        "len(ln) != n or", "len(ln) < n or",
        "tests/test_hadamard.py",
    ),
    Mutant(
        "budget-exceeded-exits-as-an-input-error", "errors.py",
        "    code = 3\n", "    code = 2\n",
        "tests/test_cli.py",
    ),
    Mutant(
        "verify-error-exits-as-an-input-error", "errors.py",
        "    code = 1\n", "    code = 2\n",
        "tests/test_cli.py",
    ),
    Mutant(
        "certificate-without-omega1-representative", "matrix.py",
        "for o in blocks for k in range(3))]", "for o in blocks for k in range(2))]",
        "tests/test_hadamard.py",
        "unresolved",
        "no matrix is known that passes the other checks and fails the Gram entries "
        "between the odd orbits; searches at n = 8, 12 and one order-16 orbit found none",
    ),
]


def run_tests(src: Path, tests: str) -> bool:
    """Whether the test file passes against the package under src."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", tests]
    return subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode == 0


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        # the copy must shadow any installed qrhadamard
        probe = [sys.executable, "-c", "import qrhadamard; print(qrhadamard.__file__)"]
        loaded = subprocess.run(probe, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
        if not loaded.stdout.startswith(str(src)):
            print(f"the tests would not import the copy: {loaded.stdout.strip() or loaded.stderr.strip()}")
            return 1
        for tests in sorted({m.tests for m in MUTANTS}):
            if not run_tests(src, tests):
                failures.append(f"FAIL {tests}: fails on the unchanged source")
        if failures:
            print("\n".join(failures))
            return 1
        for mutant in MUTANTS:
            path = src / "qrhadamard" / mutant.path
            text = path.read_text()
            if text.count(mutant.old) != 1:
                failures.append(f"FAIL {mutant.name}: its old text occurs {text.count(mutant.old)} times in {mutant.path}")
                continue
            path.write_text(text.replace(mutant.old, mutant.new))
            t0 = time.perf_counter()
            try:
                killed = not run_tests(src, mutant.tests)
            finally:
                path.write_text(text)
            verdict = "killed" if killed else "SURVIVED"
            note = f" ({mutant.status}: {mutant.reason})" if mutant.status else ""
            print(f"{verdict:8s} {mutant.name} by {mutant.tests} ({time.perf_counter() - t0:.1f}s){note}")
            if not killed and mutant.status is None:
                failures.append(f"FAIL {mutant.name}: survives {mutant.tests}")
            elif killed and mutant.status is not None:
                failures.append(f"FAIL {mutant.name}: killed, but marked {mutant.status}")
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
