"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to stream them).

Determinism note: no RNG anywhere; "random-looking" trials come from the
counter sequence in conftest.counter_indices.
"""

import json
import math
import time

import oracles
from conftest import counter_indices, excess_and_bound, shipped_partition, tiled, transpose
from qrhadamard import association_schemes as schemes
from qrhadamard import character_sums as cs
from qrhadamard import hadamard as hd
from qrhadamard import intersection_sets as isets
from qrhadamard import matrix as mx
from qrhadamard.cli import main
from qrhadamard.finite_field import ZERO, build_field, prime_power, quadratic_tower

TOL = 1e-6
TIME_LIMIT_CONSTRUCT = 5.0
TIME_LIMIT_REGULAR_M5 = 60.0


def _report_line(num, label, ok):
    print(f"ACCEPTANCE {num} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok


def _reverify_from_file(path):
    """Independent route: reparse the emitted matrix and recompute the report."""
    matrix = hd.SignMatrix.from_text([path.read_text()])
    return excess_and_bound(matrix)


def test_criterion_1_q3_family(tmp_path):
    ok = True
    for m in (1, 2, 4, 7):
        q = 4 * m * m + 4 * m + 3
        n = 4 * (m * m + m + 1)
        t0 = time.perf_counter()
        code = main(["construct", "--family", "q3", "--m", str(m), "--out", str(tmp_path)])
        elapsed = time.perf_counter() - t0
        report = json.loads((tmp_path / f"q3_q{q}_report.json").read_text())
        ok &= code == 0
        ok &= report["n"] == n
        ok &= set(map(int, report["row_sums"])) == {2 * m - 2, 2 * m + 2}
        ok &= report["excess"] == n * (2 * m + 1) == report["bound"]
        ok &= elapsed < TIME_LIMIT_CONSTRUCT
        again = _reverify_from_file(tmp_path / f"q3_q{q}_transformed.mat")
        ok &= again.excess == report["excess"] and dict(again.row_sums) == {
            int(k): v for k, v in report["row_sums"].items()
        }
        print(f"  q3 m={m} (q={q}): excess {report['excess']} in {elapsed:.2f}s")
    _report_line(1, "q3 family m in {1,2,4,7}", ok)


def test_criterion_2_q1_family(tmp_path):
    ok = True
    for m in (1, 2, 3, 4, 5):
        q = 2 * m * m + 2 * m + 1
        n = 4 * (m * m + m + 1)
        t0 = time.perf_counter()
        code = main(["construct", "--family", "q1", "--m", str(m), "--out", str(tmp_path)])
        elapsed = time.perf_counter() - t0
        report = json.loads((tmp_path / f"q1_q{q}_report.json").read_text())
        want_rows = {2 * m - 2, 2 * m + 2} if m % 2 else {2 * m, 2 * m + 4}
        hist = {int(k): v for k, v in report["row_sums"].items()}
        k1, k2 = max(hist), min(hist)
        m1 = (n * n - n * k2 * k2) // (k1 * k1 - k2 * k2)
        ok &= code == 0
        ok &= set(hist) == want_rows
        ok &= hist[k1] == m1 and hist[k2] == n - m1
        ok &= report["excess"] == n * (2 * m + 1) == report["bound"]
        ok &= elapsed < TIME_LIMIT_CONSTRUCT
        again = _reverify_from_file(tmp_path / f"q1_q{q}_transformed.mat")
        ok &= again.excess == report["excess"] and dict(again.row_sums) == hist
        print(f"  q1 m={m} (q={q}): excess {report['excess']} in {elapsed:.2f}s")
    _report_line(2, "q1 family m in {1..5}", ok)


def test_criterion_3_regular_family(tmp_path):
    ok = True
    for m, budget in ((3, None), (5, TIME_LIMIT_REGULAR_M5)):
        q = 2 * m * m - 1
        part = shipped_partition(m)
        pfile = tmp_path / f"m{m}.scheme"
        pfile.write_text(schemes.partition_text(part))
        t0 = time.perf_counter()
        code_scheme = main(["scheme", "--verify", str(pfile)])
        code_con = main(
            ["construct", "--family", "regular", "--m", str(m), "--partition", str(pfile), "--out", str(tmp_path)]
        )
        elapsed = time.perf_counter() - t0
        report = json.loads((tmp_path / f"regular_q{q}_report.json").read_text())
        ok &= code_scheme == 0 and code_con == 0
        ok &= report["n"] == 4 * m * m
        ok &= report["row_sums"] == {str(2 * m): 4 * m * m}
        ok &= report["excess"] == 8 * m**3 == report["bound"]
        if budget is not None:
            ok &= elapsed < budget
        again = _reverify_from_file(tmp_path / f"regular_q{q}_transformed.mat")
        ok &= again.row_sums == ((2 * m, 4 * m * m),)
        print(f"  regular m={m} (q={q}): excess {report['excess']} in {elapsed:.2f}s")
    _report_line(3, "regular family m in {3,5}", ok)


def _family_h_sets(choice):
    if choice.family == "q3":
        h0 = 2 * choice.h + (1 - choice.epsilon * choice.delta) // 2
        return [[h0 + i for i in range(4)]]
    return [[choice.h, choice.h + 1], [choice.h + 1, choice.h + 2]]


def test_criterion_4_formula_oracles():
    ok = True
    for q in (5, 11, 13, 25, 27):
        family = "q3" if q % 4 == 3 else "q1"
        e = cs.FAMILIES[family].sign_order
        ext, base = quadratic_tower(q)
        pairs = tiled(list(isets.admissible_params(ext, family)), q)  # every admissible ell
        assert pairs, f"no admissible pairs at q={q}"
        for choice in pairs:
            for h_set in _family_h_sets(choice):
                if not oracles.check_size_formulas(ext, choice.ell, e, h_set):
                    ok = False
        # twenty deterministic (ell, s) pairs per field for both identities
        n = ext.order
        ells = []
        k = 0
        for raw in counter_indices(200, n - 1, salt=q):
            ell = 1 + raw
            if ell % (q + 1):
                ells.append(ell)
            if len(ells) == 20:
                break
        elements = [ZERO, *base.nonzero()]
        svals = [elements[i] for i in counter_indices(20, base.q, salt=q + 1)]
        for ell, s in zip(ells, svals):
            if not oracles.check_lemma_linear(ext, e, ell):
                ok = False
            if not oracles.check_lemma_quadratic_twist(ext, e, ell, s):
                ok = False
        print(f"  q={q}: {len(pairs)} admissible pairs, formulas + 20 identity pairs checked")
    _report_line(4, "size-formula and identity oracles", ok)


def test_criterion_5_closed_forms():
    from sympy import primerange

    ok = True
    checked = 0
    for p in primerange(3, 201):
        q, s = p, 1
        while q <= 200:
            ctx = build_field(p, s)
            got = cs.gauss_sum(ctx, 2, 1)
            if p % 4 == 1:
                want = (-1) ** (s - 1) * math.sqrt(q)
            else:
                want = (-1) ** (s - 1) * (1j**s) * math.sqrt(q)
            ok &= abs(got - want) < TOL
            checked += 1
            q *= p
            s += 1
    print(f"  quadratic Gauss sums: {checked} prime powers q <= 200")
    for q in (11, 27, 83):
        ext, _ = quadratic_tower(q)
        dec = cs.decompose_gauss(ext, "q3")
        ok &= abs(dec.value - cs.gauss_sum(ext, 8, 1)) < TOL
    for q, d in ((5, 2), (11, 2), (7, 2)):
        base = build_field(q)
        ext = build_field(q, 2)
        for e in range(2, q):
            if (q - 1) % e == 0:
                ok &= oracles.check_davenport_hasse(base, ext, e, d)
        ok &= oracles.check_davenport_hasse(base, ext, q - 1, d)
    for q in (5, 13, 17, 25, 29):
        ctx = build_field(*prime_power(q))
        j = oracles.jacobi_sum(ctx, 2, 4)
        a, b = round(j.real), round(j.imag)
        ok &= abs(j - complex(a, b)) < TOL
        ok &= a * a + b * b - q == 0
        ok &= a % 2 == 1
    _report_line(5, "closed-form suite", ok)


def test_criterion_6_property_suite():
    ok = True

    def det_signs(n, trial, salt):
        return sum(1 << i for i in range(n) if (31 * trial + 17 * i + 7 * salt) % 7 >= 4)

    outputs = []
    for q, family in ((11, "q3"), (13, "q1")):
        ext, _ = quadratic_tower(q)
        outputs.append(hd.transform(ext, family))
    ext17, _ = quadratic_tower(17)
    outputs.append(hd.transform(ext17, "regular", partition=shipped_partition(3)))

    for signed, rep, _ in outputs:
        for trial in range(100):
            candidate = hd.apply_signing(
                signed, det_signs(signed.n, trial, 1), det_signs(signed.n, trial, 2)
            )
            if mx.hadamard_violation(candidate) is not None:
                ok = False
        ok &= sum(v * v * c for v, c in rep.row_sums) == rep.n**2
        rep_t = excess_and_bound(transpose(signed))
        ok &= rep_t.excess == rep_t.bound == rep.bound
    print(f"  signing trials: {100 * len(outputs)} across orders {[r.n for _, r, _ in outputs]}")

    for m in (3, 5):
        ext, _ = quadratic_tower(2 * m * m - 1)
        part = shipped_partition(m)
        report = schemes.verify_scheme(ext, part)
        ok &= report.is_scheme and report.table1_match
        rows = schemes.eigenmatrix_rows(ext, part, report.tau)
        for row in rows[1:]:
            ok &= abs(sum(row[1:]) - (-1)) < TOL
        ok &= oracles.bannai_muzychuk_check(rows, [(0,), (1, 3), (2, 4)])
    _report_line(6, "property suite", ok)
