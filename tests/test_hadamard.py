import os
import random
import signal
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint

from conftest import (
    PARSE_CASES,
    canonical_index,
    counted_scans,
    entry,
    excess_and_bound,
    kronecker,
    paley_sylvester,
    scrambled,
    shipped_partition,
    sylvester,
    transpose,
)
from qrhadamard import hadamard as hd
from qrhadamard import intersection_sets as isets
from qrhadamard import matrix as mx
from qrhadamard.character_sums import family_q
from qrhadamard.errors import ParseError
from qrhadamard.finite_field import MAX_FIELD_SIZE, ZERO, build_field, prime_power, quadratic_tower


def from_entries(entries):
    n = len(entries)
    rows = [sum(1 << j for j, v in enumerate(row) if v == -1) for row in entries]
    return hd.SignMatrix(n, rows)


def det_signs(n, trial, salt=0):
    """Deterministic sign mask (bit i set negates row or column i) for the
    counter-based property trials."""
    return sum(1 << i for i in range(n) if (31 * trial + 17 * i + 7 * salt) % 7 >= 4)


def test_is_hadamard_basics():
    assert mx.hadamard_violation(from_entries([[1, 1], [1, -1]])) is None
    assert mx.hadamard_violation(from_entries([[1] * 4] * 4)) is not None
    assert mx.hadamard_violation(hd.construct_q3(build_field(7))) is None
    assert mx.hadamard_violation(from_entries([[1]])) is None


def test_sign_matrix_refuses_rows_that_break_the_order():
    assert hd.SignMatrix(2, [0, 0b11]).rows == [0, 0b11]
    for rows in ([0], [0, 0, 0], [0, 0b100], [0, -1]):  # row count, a bit at position n, a negative row
        with pytest.raises(hd.HadamardError, match="^row masks inconsistent with order n$"):
            hd.SignMatrix(2, rows)


def test_violation_reported():
    m = from_entries([[1, 1], [1, 1]])
    assert hd.hadamard_violation(m) == (0, 1)


def test_construct_q3_entries_against_integer_oracle():
    ctx = build_field(7)
    h = hd.construct_q3(ctx)
    assert h.n == 8
    assert all(entry(h, 0, j) == 1 for j in range(1, 8))
    assert entry(h, 0, 0) == -1
    assert all(entry(h, i, 0) == 1 for i in range(1, 8))
    squares_with_zero = {0, 1, 2, 4}
    val = {ctx.from_int(c): c for c in range(ctx.q)}
    for x in (ZERO, *ctx.nonzero()):
        for y in (ZERO, *ctx.nonzero()):
            i, j = 1 + canonical_index(x), 1 + canonical_index(y)
            want = 1 if (val[y] - val[x]) % 7 in squares_with_zero else -1
            assert entry(h, i, j) == want


def per_element_translates(ctx, cls):
    """Oracle: mask of x + cls over canonical indices, per x, by ctx.add."""
    return [sum(1 << canonical_index(ctx.add(x, c)) for c in cls) for x in (ZERO, *ctx.nonzero())]


@pytest.mark.parametrize("q", [3, 7, 11, 19, 27, 5, 9, 13, 25, 49])
def test_rotated_masks_match_per_element_addition(q):
    ctx = build_field(*prime_power(q))
    squares = [k for k in ctx.nonzero() if k % 2 == 0]
    ns = per_element_translates(ctx, [k for k in ctx.nonzero() if k % 2])
    assert list(isets.class_translates(ctx, 1)) == ns
    assert list(isets._translate_masks(ctx, False)) == per_element_translates(ctx, squares)
    assert list(isets._translate_masks(ctx, True)) == per_element_translates(ctx, squares + [ZERO])
    if q % 4 == 3:
        assert hd.construct_q3(ctx).rows == [1] + [m << 1 for m in ns]
        return
    # M1 = M+I, M2 = M-I, M3 = -M1 as sign masks, laid out as in construct_q1
    full = (1 << q) - 1
    m2 = [m | 1 << k for k, m in enumerate(ns)]
    rows = [1 << 1, 0b11 | full << (2 + q)]
    rows += [a << 2 | b << (2 + q) for a, b in zip(ns, m2)]
    rows += [1 << 1 | b << 2 | (full ^ a) << (2 + q) for a, b in zip(ns, m2)]
    assert hd.construct_q1(ctx).rows == rows


def test_text_round_trip_and_strict_parse():
    h = hd.construct_q1(build_field(13))
    text = h.to_text()
    assert text.splitlines()[1] == "".join("-" if entry(h, 0, j) == -1 else "+" for j in range(h.n))
    assert hd.SignMatrix.from_text([text]) == h
    # the text is streamed a line at a time, an all-plus row included
    assert list(hd.SignMatrix(2, [0, 2]).text_lines()) == ["2\n", "++\n", "+-\n"]
    # int() alone would accept "_" and inner whitespace
    for bad in ("3\n+_-\n+++\n+++\n", "3\n+ -\n+++\n+++\n"):
        with pytest.raises(ParseError):
            hd.SignMatrix.from_text([bad])


def test_not_hadamard_carries_rows():
    with pytest.raises(hd.NotHadamard) as info:
        excess_and_bound(from_entries([[1] * 4] * 4))
    assert info.value.rows == (0, 1)


def test_construct_q3_smallest_case():
    h = hd.construct_q3(build_field(3))
    assert h.n == 4 and mx.hadamard_violation(h) is None
    with pytest.raises(isets.WrongResidue):
        hd.construct_q3(build_field(5))


def test_construct_q1_symmetric_hadamard():
    for q in (5, 13):
        h = hd.construct_q1(build_field(q))
        assert h.n == 2 * q + 2
        assert mx.hadamard_violation(h) is None
        assert h == transpose(h)
    with pytest.raises(isets.WrongResidue):
        hd.construct_q1(build_field(7))


def test_construct_q1_negated2():
    base = hd.construct_q1(build_field(5))
    neg = hd.construct_q1(build_field(5), "negated2")
    assert mx.hadamard_violation(neg) is None
    assert entry(neg, 1, 1) == entry(base, 1, 1)  # doubly negated
    assert entry(neg, 0, 1) == -entry(base, 0, 1)
    assert entry(neg, 1, 0) == -entry(base, 1, 0)
    assert entry(neg, 2, 2) == entry(base, 2, 2)


def test_bound_params_examples():
    k, t, s, bound, alt = mx.bound_params(12)
    assert (k, t, s, bound) == (2, 0, 3, 36)
    k, t, s, bound, alt = mx.bound_params(4)
    assert (k, t, s, bound) == (2, 2, 4, 8)
    # both branches agree at n = 4(m^2+m+1)
    for m in range(1, 11):
        n = 4 * (m * m + m + 1)
        _, _, _, b, alt = mx.bound_params(n)
        assert b == alt == n * (2 * m + 1)


def test_excess_report_order4():
    h = from_entries([[1, 1, 1, -1], [1, 1, -1, 1], [1, -1, 1, 1], [-1, 1, 1, 1]])
    rep = excess_and_bound(h)
    assert rep.excess == 8 == rep.bound
    assert rep.classification == "regular(r=2)"
    assert rep.row_sums == ((2, 4),)


def test_excess_report_rejects_non_hadamard():
    with pytest.raises(hd.NotHadamard):
        excess_and_bound(from_entries([[1] * 4] * 4))
    with pytest.raises(hd.HadamardError):
        excess_and_bound(from_entries([[1, 1], [1, -1]]))  # n < 4


def test_apply_signing_involution_and_excess_flip():
    h = hd.construct_q3(build_field(11))
    n = h.n
    assert hd.apply_signing(h, 0, 0) == h
    allneg = (1 << n) - 1
    assert hd.apply_signing(h, allneg, 0).excess() == -h.excess()
    signs = det_signs(n, 3)
    twice = hd.apply_signing(hd.apply_signing(h, signs, 0), signs, 0)
    assert twice == h
    for rows, cols in ((1 << n, 0), (0, 1 << n), (-1, 0)):
        with pytest.raises(hd.LengthMismatch):
            hd.apply_signing(h, rows, cols)


def test_signing_preserves_hadamard_100_trials():
    h = hd.construct_q3(build_field(11))
    for trial in range(100):
        rs = det_signs(h.n, trial, salt=1)
        cs_ = det_signs(h.n, trial, salt=2)
        assert mx.hadamard_violation(hd.apply_signing(h, rs, cs_)) is None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, (1 << 12) - 1), st.integers(0, (1 << 12) - 1))
def test_signing_preserves_hadamard_property(rows, cols):
    h = hd.construct_q3(build_field(11))
    signed = hd.apply_signing(h, rows, cols)
    assert mx.hadamard_violation(signed) is None
    assert sum(v * v for v in signed.row_sums()) == signed.n**2


@pytest.mark.parametrize(
    "q,m,rows,excess",
    [(11, 1, {0, 4}, 36), (27, 2, {2, 6}, 140), (83, 4, {6, 10}, 756)],
)
def test_transform_biregular_q3(q, m, rows, excess):
    ext, _ = quadratic_tower(q)
    signed, rep, _ = hd.transform(ext, "q3")
    assert rep.n == 4 * (m * m + m + 1)
    assert {v for v, _ in rep.row_sums} == rows
    assert rep.excess == excess == rep.bound
    assert rep.classification.startswith("biregular")
    # frequency oracle from the counting identities
    (k2, m2), (k1, m1) = rep.row_sums
    n = rep.n
    assert m2 + m1 == n and m1 * k1 * k1 + m2 * k2 * k2 == n * n
    assert m1 == (n * n - n * k2 * k2) // (k1 * k1 - k2 * k2)
    # biregular values are even and share a residue class mod 4
    assert k1 % 2 == 0 and k2 % 2 == 0 and (k1 - k2) % 4 == 0


@pytest.mark.parametrize(
    "q,m,rows,excess",
    [(5, 1, {0, 4}, 36), (13, 2, {4, 8}, 140), (25, 3, {4, 8}, 364), (41, 4, {8, 12}, 756)],
)
def test_transform_biregular_q1(q, m, rows, excess):
    ext, _ = quadratic_tower(q)
    signed, rep, _ = hd.transform(ext, "q1")
    assert rep.n == 4 * (m * m + m + 1)
    assert {v for v, _ in rep.row_sums} == rows
    assert rep.excess == excess == rep.bound
    expected_rows = {2 * m - 2, 2 * m + 2} if m % 2 else {2 * m, 2 * m + 4}
    assert rows == expected_rows
    k2, k1 = sorted(rows)
    assert k1 % 2 == 0 and k2 % 2 == 0 and (k1 - k2) % 4 == 0


def test_q1_m2_frequencies():
    ext, _ = quadratic_tower(13)
    _, rep, _ = hd.transform(ext, "q1")
    assert dict(rep.row_sums) == {4: 21, 8: 7}


def test_transpose_of_attaining_output_attains(tower11):
    ext, _ = tower11
    signed, rep, _ = hd.transform(ext, "q3")
    rep_t = excess_and_bound(transpose(signed))
    assert rep_t.excess == rep_t.bound == rep.bound
    assert rep_t.classification.startswith("biregular")


def test_row_sum_square_identity(tower11):
    ext, _ = tower11
    signed, rep, _ = hd.transform(ext, "q3")
    assert sum(v * v * c for v, c in rep.row_sums) == rep.n**2


def test_transform_regular_m3(tower17):
    ext, _ = tower17
    part = shipped_partition(3)
    signed, rep, _ = hd.transform(ext, "regular", partition=part)
    assert rep.n == 36
    assert rep.row_sums == ((6, 36),)
    assert rep.excess == 216 == rep.bound
    assert rep.classification == "regular(r=6)"
    with pytest.raises(hd.HadamardError, match="^the regular family needs a scheme partition$"):
        hd.transform(ext, "regular")


def test_transform_wrong_family():
    ext, _ = quadratic_tower(7)
    with pytest.raises(hd.NotPrimePower):
        hd.transform(ext, "q3")
    with pytest.raises(hd.NotPrimePower):
        hd.transform(ext, "q1")


@pytest.mark.parametrize(
    "q,family,observed,promised",
    [(27, "q3", (11,), (12,)), (13, "q1", (6, 4), (4, 7))],
)
def test_transform_names_the_broken_size_promise(q, family, observed, promised, monkeypatch):
    ext, _ = quadratic_tower(q)
    real = isets.h_sets
    # the H sets of the next h, which the admissible ell does not fix
    monkeypatch.setattr(isets, "h_sets", lambda params: real(params._replace(h=(params.h + 1) % 4)))
    with pytest.raises(hd.HadamardError) as info:
        hd.transform(ext, family)
    assert str(info.value) == f"{family}: D-set sizes {observed} break the promised sizes {promised}"


def test_transform_refuses_an_ell_it_cannot_use(monkeypatch, tower17):
    ext, _ = tower17
    part = shipped_partition(3)
    calls, real = [], isets.admissible_at
    monkeypatch.setattr(isets, "admissible_at", lambda *args: calls.append(args[-1]) or real(*args))
    for ell, reason in ((0, "lies outside 1 .. q^2 - 2 = 287"), (288, "lies outside 1 .. q^2 - 2 = 287"),
                        (1, "is not admissible for the regular family")):
        with pytest.raises(isets.BadEll) as info:
            hd.transform(ext, "regular", ell, partition=part)
        assert str(info.value) == f"ell = {ell} {reason}"
    assert calls == [1]  # the range is checked first, without the partition
    assert hd.transform(ext, "regular", 3, partition=part)[1] == hd.transform(ext, "regular", partition=part)[1]


def test_transform_regular_builds_and_checks_its_pieces_once(monkeypatch, tower17):
    ext, _ = tower17
    part = shipped_partition(3)
    calls = []
    for name in ("doubled_symmetric_design", "intersection_profile"):
        real = getattr(isets, name)
        monkeypatch.setattr(isets, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    hd.transform(ext, "regular", partition=part)
    assert calls == []  # the rows are signed by their own sums, with no design
    # swapped D sets break the size promise, which transform names
    dsets = isets.scheme_dsets
    monkeypatch.setattr(isets, "scheme_dsets", lambda *args: dsets(*args)[::-1])
    with pytest.raises(hd.HadamardError) as info:
        hd.transform(ext, "regular", partition=part)
    assert str(info.value) == "regular: D-set sizes (9, 6) break the promised sizes (6, 9)"


def test_transform_names_the_broken_profile_promise(monkeypatch):
    ext, _ = quadratic_tower(11)
    # a D set of the promised size 5 but other points: 0 and omega^0..omega^3
    monkeypatch.setattr(isets, "build_dlh", lambda *args: 0b11111)
    with pytest.raises(hd.HadamardError) as info:
        hd.transform(ext, "q3")
    assert str(info.value) == "q3: row sums [0, 4, 8] break the promised set [0, 4]"


def test_transform_builds_no_design(monkeypatch):
    def refuse(*args):
        raise AssertionError("transform built a design")

    for name in ("paley_design", "paired_designs", "doubled_symmetric_design", "intersection_profile"):
        monkeypatch.setattr(isets, name, refuse)
    for family, q, part in (("q3", 11, None), ("q1", 13, None), ("regular", 17, shipped_partition(3))):
        rep = hd.transform(quadratic_tower(q)[0], family, partition=part)[1]
        assert rep.excess == rep.bound


# The paper's intersection values per design, by m: the D sets meet each
# block in one of them, and the blocks met in the upper half are the rows
# to negate.
def _q3_profiles(m):
    mm = m * m
    return ((mm + 1, mm + 2, mm + m + 1, mm + m + 2),)


def _q1_profiles(m):
    mm, top = m * m, m * m + m + 1 - m % 2
    return ((mm, mm + 1, top, top + 1), (mm - 1, mm, top - 1, top))


def _regular_profiles(m):
    return ((m * m - m, m * m),)


def _design_rows(family, base, dsets, m):
    """The mask of the rows the paper negates: the design rows whose block
    meets the D sets in the upper half of the intersection values, and the
    mask of the D-set points over the matrix columns."""
    q = base.q
    members = dsets[0] | (dsets[1] << q if len(dsets) > 1 else 0)
    if family == "q3":
        designs, profiles = [(isets.paley_design(base), 0)], _q3_profiles(m)
    elif family == "q1":
        first, second = isets.paired_designs(base)
        designs, profiles = [(first, 0), (second, q)], _q1_profiles(m)
    else:
        members <<= 1  # past the star, point 0 of the doubled design
        designs, profiles = [(isets.doubled_symmetric_design(base), 0)], _regular_profiles(m)
    border = hd.FAMILIES[family].border
    row_mask = 0
    for (design, first_row), allowed in zip(designs, profiles):
        profile = isets.intersection_profile(members, design)
        assert {v for v, _ in profile.profile} <= set(allowed)
        upper = allowed[len(allowed) // 2:]
        row_mask |= sum(1 << b for v, blocks in profile.duals if v in upper for b in blocks) << border + first_row
    return row_mask, members << border


@pytest.mark.parametrize(
    "family,m,q",
    [inst for inst in hd.instances() if inst[0] != "regular" and inst[2] <= 300]
    + [("regular", 3, 17), ("regular", 5, 49)],
)
def test_transform_negates_the_rows_of_the_blocks_met_in_the_upper_values(monkeypatch, family, m, q):
    ext, base = quadratic_tower(q)
    part = shipped_partition(m) if family == "regular" else None
    masks = []
    signing = hd.apply_signing
    monkeypatch.setattr(hd, "apply_signing", lambda h, rows, cols: masks.append((rows, cols)) or signing(h, rows, cols))
    rep = hd.transform(ext, family, partition=part)[1]
    params = isets.find_params(ext, family, part)
    if part is None:
        dsets = [isets.build_dlh(ext, params.ell, hd.FAMILIES[family].sign_order, hs) for hs in isets.h_sets(params)]
    else:
        dsets = isets.scheme_dsets(ext, part, params.ell)
    # the regular base signs its second row and column first
    assert masks[-1] == _design_rows(family, base, dsets, m)
    assert masks[:-1] == ([(0b10, 0b10)] if family == "regular" else [])
    assert rep.excess == rep.bound


def test_matrix_text_roundtrip():
    h = hd.construct_q3(build_field(11))
    text = h.to_text()
    again = hd.SignMatrix.from_text([text])
    assert again == h
    assert text.splitlines()[0] == "12"
    assert set("".join(text.splitlines()[1:])) <= {"+", "-"}


def test_matrix_text_parse_errors():
    with pytest.raises(ParseError):
        hd.SignMatrix.from_text([""])
    with pytest.raises(ParseError):
        hd.SignMatrix.from_text(["x\n++\n"])
    with pytest.raises(ParseError):
        hd.SignMatrix.from_text(["2\n++\n"])
    with pytest.raises(ParseError):
        hd.SignMatrix.from_text(["2\n+*\n--\n"])
    with pytest.raises(ParseError):
        hd.SignMatrix.from_text(["2\n+++\n---\n"])


def _rows_by_set_rule(text):
    """from_text with the per-row set test it had before: the rows of the
    matrix, or None where that rule raised ParseError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        n = int(lines[0].strip())
    except (IndexError, ValueError):
        return None
    if n < 1 or len(lines) != n + 1:
        return None
    rows = []
    for ln in lines[1:]:
        ln = ln.strip()
        if len(ln) != n or set(ln) - {"+", "-"}:
            return None
        rows.append(int(ln.translate(str.maketrans("+-", "01"))[::-1], 2))
    return rows


# a lone surrogate: no UTF-8 file decodes to one, but a str may hold it
@pytest.mark.parametrize("text, accepted", PARSE_CASES + [("2\n+\ud800\n-+\n", False)])
def test_parse_accepts_exactly_what_the_set_rule_accepted(text, accepted):
    want = _rows_by_set_rule(text)
    assert (want is not None) == accepted
    if accepted:
        assert hd.SignMatrix.from_text([text]).rows == want
    else:
        with pytest.raises(ParseError):
            hd.SignMatrix.from_text([text])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(alphabet="+-+-_ \t\r\n\x0b\u00a0\uff0b\u2212\u00e90", max_size=12))
def test_parse_rows_match_the_set_rule(body):
    for text in ("2\n" + body, "2\n+-\n" + body, "1\n" + body):
        want = _rows_by_set_rule(text)
        if want is None:
            with pytest.raises(ParseError):
                hd.SignMatrix.from_text([text])
        else:
            assert hd.SignMatrix.from_text([text]).rows == want


def test_report_json_fields(tower11):
    ext, _ = tower11
    _, rep, _ = hd.transform(ext, "q3")
    payload = mx.report_json(rep)
    assert sorted(payload) == ["bound", "classification", "excess", "k", "n", "row_sums", "s", "t"]
    assert payload["row_sums"] == {"0": 3, "4": 9}


# -- the omega^2 certificate inside the one Hadamard check

def serial_violation(h):
    """The full check as one plain loop over the row pairs: the reference
    for hadamard_violation's certificate and for its scan split over
    processes."""
    n, rows = h.n, h.rows
    if n % 2 and n > 1:
        return (0, 1)
    for i in range(n):
        for j in range(i + 1, n):
            if (rows[i] ^ rows[j]).bit_count() != n // 2:
                return (i, j)
    return None


def reversed_rows(h):
    return hd.SignMatrix(h.n, h.rows[::-1])


# every small base, including q = 3 and q = 5 and the regular family's
# negated2 base; q3 q = 11 and q1 q = 5 share order 12, which fits both layouts
_BASES = (
    [("q3", q) for q in (3, 7, 11, 19, 23, 27, 31)]
    + [("q1", q) for q in (5, 9, 13, 17, 25, 29)]
    + [("regular", q) for q in (5, 13, 17, 49)]
)


@pytest.mark.parametrize("family,q", _BASES)
def test_certificate_agrees_with_the_full_check_on_the_bases(family, q, monkeypatch):
    h = hd.base_matrix(family, build_field(*prime_power(q)))
    assert serial_violation(h) is None
    assert mx._certified(h)
    scans = counted_scans(monkeypatch)
    assert hd.hadamard_violation(h) is None and scans == []
    # still Hadamard, but not invariant: the scan passes it.  At n <= 8 the
    # reversal is invariant too (at q = 3 sigma is the identity), and certifies.
    rev = reversed_rows(h)
    assert serial_violation(rev) is None
    assert mx._certified(rev) == (h.n <= 8)
    assert hd.hadamard_violation(rev) is None and scans == ([] if h.n <= 8 else [h.n])
    if family != "q3":  # both border rows equal: invariant, and only the border pair fails
        twin = hd.SignMatrix(h.n, h.rows[:1] * 2 + h.rows[2:])
        assert not mx._certified(twin)
        assert hd.hadamard_violation(twin) == serial_violation(twin) == (0, 1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=st.sampled_from(_BASES), data=st.data())
def test_certificate_holds_on_signings_of_the_bases(case, data):
    family, q = case
    h = hd.base_matrix(family, build_field(*prime_power(q)))
    signs = st.integers(0, (1 << h.n) - 1)
    signed = hd.apply_signing(h, data.draw(signs), data.draw(signs))
    assert serial_violation(signed) is None
    assert mx._certified(signed)


def flipped(h, i, j):
    rows = list(h.rows)
    rows[i] ^= 1 << j
    return hd.SignMatrix(h.n, rows)


@pytest.mark.parametrize("family,q", [("q3", 11), ("q1", 13), ("regular", 17)])
def test_every_single_bit_flip_gets_the_full_check_verdict(family, q):
    part = shipped_partition(3) if family == "regular" else None
    signed, _, base = hd.transform(quadratic_tower(q)[0], family, partition=part)
    for h in (signed, base):
        for i in range(h.n):
            for j in range(h.n):
                bad = flipped(h, i, j)
                want = serial_violation(bad)
                assert want is not None and hd.hadamard_violation(bad) == want


def test_transform_falls_back_to_the_full_check(monkeypatch, tower11):
    ext, base_ctx = tower11
    base = hd.base_matrix("q3", base_ctx)
    real_check, real_signing = hd.hadamard_violation, hd.apply_signing
    checked, signed = [], []
    monkeypatch.setattr(hd, "hadamard_violation", lambda h: checked.append(h) or real_check(h))
    monkeypatch.setattr(hd, "apply_signing", lambda *args: signed.append(real_signing(*args)) or signed[-1])
    scans = counted_scans(monkeypatch)
    hd.transform(ext, "q3")
    assert checked == signed and scans == []
    # two base rows swapped: still Hadamard, not invariant; the scan passes it
    rows = list(base.rows)
    rows[3], rows[4] = rows[4], rows[3]
    monkeypatch.setattr(hd, "base_matrix", lambda *args: hd.SignMatrix(base.n, rows))
    hd.transform(ext, "q3")
    assert checked == signed and scans == [12]
    # a flipped base: NotHadamard names the first bad pair
    monkeypatch.setattr(hd, "base_matrix", lambda *args: flipped(base, 5, 7))
    with pytest.raises(hd.NotHadamard) as info:
        hd.transform(ext, "q3")
    assert checked == signed and info.value.rows == serial_violation(signed[-1])


def test_instances_are_the_theorem_under_the_field_cap():
    ladder = list(hd.instances())
    assert Counter(family for family, _, _ in ladder) == {"q3": 9, "q1": 22, "regular": 14}
    assert hd.MAX_Q ** 2 <= MAX_FIELD_SIZE < (hd.MAX_Q + 1) ** 2
    # oracle: every m whose q fits, filtered by sympy's factorization
    want = []
    for family, fam in hd.FAMILIES.items():
        m = 1
        while family_q(m, family) <= hd.MAX_Q:
            q = family_q(m, family)
            if len(factorint(q)) == 1 and (m % 2 or not fam.odd_m):
                want.append((family, m, q))
            m += 1
    assert ladder == want
    assert {family: q for family, _, q in ladder} == {"q3": 3251, "q1": 3613, "regular": 4049}
    assert [m for family, m, _ in ladder if family == "q3"] == [1, 2, 4, 7, 10, 16, 19, 22, 28]


# -- the row-group certificate: matrices of Sylvester type

def serial_scan(h):
    """hadamard_violation's scan run by this process alone."""
    return mx._scan(h.rows, h.n, 0, 1, [h.n], 0)


@pytest.mark.parametrize("k", range(1, 13))
def test_group_certificate_proves_scrambled_sylvester_matrices(k, monkeypatch):
    h = scrambled(sylvester(2**k), random.Random(k))
    assert mx._group_certified(h)
    if k <= 10:
        assert serial_scan(h) is None
    scans = counted_scans(monkeypatch)
    assert hd.hadamard_violation(h) is None and scans == []


@pytest.mark.parametrize("k", range(1, 5))
def test_group_certificate_proves_the_regular_kronecker_powers(k, monkeypatch):
    core = from_entries([[-1 if i == j else 1 for j in range(4)] for i in range(4)])  # J - 2I
    h = core
    for _ in range(k - 1):
        h = kronecker(h, core)
    assert mx._group_certified(h) and serial_scan(h) is None
    scans = counted_scans(monkeypatch)
    rep = excess_and_bound(h)
    assert scans == []
    assert rep.classification == f"regular(r={2**k})" and rep.excess == rep.bound == 8**k


@pytest.mark.parametrize("n,hadamard", [(2, 8), (4, 768)])
def test_group_certificate_decides_every_matrix_of_order_2_and_4(n, hadamard):
    # every Hadamard matrix of order 1, 2, 4 or 8 is of Sylvester type, so
    # at these orders the certificate proves exactly the Hadamard matrices
    full, certified = (1 << n) - 1, 0
    for bits in range(1 << n * n):
        h = hd.SignMatrix(n, [bits >> n * i & full for i in range(n)])
        proved = mx._group_certified(h)
        assert proved == (serial_scan(h) is None), h.rows
        certified += proved
    assert certified == hadamard


def test_group_certificate_decides_random_matrices_of_order_8():
    rng, base = random.Random(8), sylvester(8)
    counts = Counter()
    for trial in range(20000):
        if trial % 2:
            h = hd.SignMatrix(8, [rng.getrandbits(8) for _ in range(8)])
        else:  # a scrambled Sylvester matrix with up to two flipped entries or copied rows
            h = scrambled(base, rng)
            for _ in range(rng.randrange(3)):
                i, j = rng.randrange(8), rng.randrange(8)
                h = flipped(h, i, j) if rng.getrandbits(1) else copied(h, (i, j, rng.choice((1, -1))))
        proved = mx._group_certified(h)
        assert proved == (serial_scan(h) is None), h.rows
        counts[proved] += 1
    assert min(counts.values()) > 2000, counts


@pytest.mark.parametrize("k", [2, 4, 8])
def test_group_certificate_refuses_near_misses_and_the_scan_answers(k, monkeypatch):
    n = 2**k
    h = scrambled(sylvester(n), random.Random(100 + k))
    spots = range(n) if n <= 16 else (0, 1, n // 2, n - 1)
    cases = [flipped(h, i, j) for i in spots for j in spots]
    cases += [copied(h, (0, n - 1, 1)), copied(h, (n - 1, 1, 1)), copied(h, (1, 2, 1))]  # a duplicated row
    cases += [copied(h, (0, n - 1, -1)), copied(h, (n - 1, 1, -1)), copied(h, (2, 1, -1))]  # a complemented row
    scans = counted_scans(monkeypatch)
    for bad in cases:
        assert not mx._group_certified(bad), bad.rows
        want = serial_violation(bad)
        assert want is not None and hd.hadamard_violation(bad) == want
    assert scans == [n] * len(cases)


@pytest.mark.parametrize("q", [31, 127])
def test_group_certificate_refuses_paley_matrices(q, monkeypatch):
    h = hd.construct_q3(build_field(q))
    assert not mx._group_certified(h)
    rev = reversed_rows(h)  # not invariant either: the scan answers
    assert not mx._group_certified(rev) and not mx._certified(rev)
    scans = counted_scans(monkeypatch)
    assert hd.hadamard_violation(rev) is None and scans == [q + 1]


def test_the_empty_matrix_is_still_hadamard():
    h = hd.SignMatrix(0, [])
    assert not mx._group_certified(h)
    assert hd.hadamard_violation(h) is None


def test_group_certificate_needs_the_weights():
    h = hd.SignMatrix(4, [0b0000, 0b0010, 0b0100, 0b0110])  # a group of masks, weights 1, 1, 2
    assert not mx._group_certified(h)
    assert hd.hadamard_violation(h) == serial_violation(h) == (0, 1)


@pytest.fixture(scope="module")
def split_scan_matrices():
    """Hadamard matrices of order 512 to 1020 that no certificate proves, so
    hadamard_violation scans them: Paley I of order 32 Kronecker times
    Sylvester's of order 16, and Paley I and II with their rows reversed."""
    return {
        "kronecker-512": paley_sylvester(512),
        "paley1-728": reversed_rows(hd.construct_q3(build_field(727))),
        "paley2-1020": reversed_rows(hd.construct_q1(build_field(509))),
    }


def test_the_split_scan_matrices_are_not_certified(split_scan_matrices):
    for name, h in split_scan_matrices.items():
        assert not mx._certified(h) and not mx._group_certified(h), name


def copied(h, *moves):
    """h with row s replaced by row r (negated if sign is -1), for each
    (r, s, sign): that row pair is the only one it makes non-orthogonal."""
    rows = list(h.rows)
    full = (1 << h.n) - 1
    for r, s, sign in moves:
        rows[s] = h.rows[r] if sign == 1 else h.rows[r] ^ full
    return hd.SignMatrix(h.n, rows)


def split_scan_cases(h):
    """(matrix, scanner counts w to check it with): h itself, flips and the
    last pair at every w; at each w, a first violating row owned by each
    scanner, and violations that two scanners find."""
    n, every = h.n, range(1, 5)
    yield h, every
    yield flipped(h, 0, 3), every
    yield flipped(h, n - 1, n - 1), every
    yield copied(h, (n - 2, n - 1, 1)), every  # the only bad pair is the last one
    for w in every:
        for k in range(w):
            yield copied(h, (5 * w + k, n - 1 - k, 1)), (w,)
            yield copied(h, (5 * w + k, n - 1 - k, -1)), (w,)
            yield flipped(h, 9 * w + k, 7), (w,)
        if w > 1:
            # two scanners find a pair; the smaller row must win either way round
            yield copied(h, (3 * w + 1, n - 1, 1), (3 * w + 2, n - 2, 1)), (w,)
            yield copied(h, (4 * w - 1, n - 1, 1), (4 * w, n - 2, -1)), (w,)
            yield copied(h, (4 * w, n - 1, 1), (4 * w - 1, n - 2, -1)), (w,)


@pytest.mark.parametrize("name", ["kronecker-512", "paley1-728", "paley2-1020"])
def test_split_scan_finds_the_serial_first_pair(name, split_scan_matrices, monkeypatch):
    for h, ws in split_scan_cases(split_scan_matrices[name]):
        want = serial_violation(h)
        for w in ws:
            monkeypatch.setattr(mx, "_scanner_count", lambda n, w=w: w)
            assert hd.hadamard_violation(h) == want, (name, w)
    assert serial_violation(split_scan_matrices[name]) is None


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_split_scan_on_odd_and_tiny_orders(w, monkeypatch):
    monkeypatch.setattr(mx, "_scanner_count", lambda n: w)
    odd = hd.SignMatrix(513, [0] * 513)
    cases = [from_entries([[1]]), from_entries([[1, 1], [1, -1]]), from_entries([[1, 1], [1, 1]]), odd]
    cases += [from_entries([[1] * 3] * 3), from_entries([[1, 1, 1, 1]] * 4), sylvester(4)]
    for h in cases:
        assert hd.hadamard_violation(h) == serial_violation(h), (h.n, w)


def test_an_odd_order_is_refused_before_any_certificate_or_scan(monkeypatch):
    # rows of odd length never meet in an even number of places, so (0, 1) needs no check
    def no_check(*args):
        raise AssertionError("an odd order reached a certificate or the scan")

    for name in ("_certified", "_group_certified", "_scan", "_forked_scan"):
        monkeypatch.setattr(mx, name, no_check)
    for n in (3, 5, 513):
        assert hd.hadamard_violation(hd.SignMatrix(n, [0] * n)) == (0, 1)


def test_scanner_count_follows_the_usable_cpus_and_the_order():
    cpus = len(os.sched_getaffinity(0))
    for n in (2, 510, 511, 512, 1024, 2048, 7228):
        assert mx._scanner_count(n) == max(1, min(cpus, n // mx._ROWS_PER_SCANNER)), n


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_split_scan_reaps_every_scanner(split_scan_matrices, monkeypatch):
    monkeypatch.setattr(mx, "_scanner_count", lambda n: 3)
    h = split_scan_matrices["kronecker-512"]
    assert hd.hadamard_violation(h) is None
    assert_no_child_left()
    assert hd.hadamard_violation(copied(h, (40, 41, 1))) == (40, 41)
    assert_no_child_left()


def test_a_raising_parent_kills_and_reaps_its_scanners(split_scan_matrices, monkeypatch):
    monkeypatch.setattr(mx, "_scanner_count", lambda n: 3)
    parent, real_scan = os.getpid(), mx._scan

    def scan(*args):
        if os.getpid() == parent:
            raise RuntimeError("parent scan failed")
        return real_scan(*args)

    monkeypatch.setattr(mx, "_scan", scan)
    with pytest.raises(RuntimeError, match="parent scan failed"):
        hd.hadamard_violation(split_scan_matrices["paley2-1020"])
    assert_no_child_left()


def test_a_failing_scanner_falls_back_to_the_serial_scan(split_scan_matrices, monkeypatch):
    monkeypatch.setattr(mx, "_scanner_count", lambda n: 3)
    parent, real_scan = os.getpid(), mx._scan
    h = split_scan_matrices["kronecker-512"]

    def raises():
        raise RuntimeError("scanner failed")

    def killed():  # dies by a signal, with no exit status of its own
        os.kill(os.getpid(), signal.SIGKILL)

    for failure in (raises, killed):
        monkeypatch.setattr(mx, "_scan", lambda *args: real_scan(*args) if os.getpid() == parent else failure())
        for case in (h, copied(h, (2, 300, 1)), copied(h, (1, 300, -1))):
            assert hd.hadamard_violation(case) == serial_violation(case), failure.__name__
            assert_no_child_left()
