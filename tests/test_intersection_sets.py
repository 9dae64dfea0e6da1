import json
from itertools import combinations, islice, takewhile

import pytest

import oracles
from conftest import canonical_index, reference_params, shipped_partition, tiled
from qrhadamard import character_sums as cs
from qrhadamard import intersection_sets as isets
from qrhadamard.cli import main
from qrhadamard.finite_field import ZERO, build_field, quadratic_tower


def pairwise_lambda(design):
    """Oracle: the set of pair-coverage counts over all point pairs."""
    counts = set()
    for i, j in combinations(range(design.v), 2):
        counts.add(sum(1 for blk in design.blocks if (blk >> i) & 1 and (blk >> j) & 1))
    return counts


@pytest.mark.parametrize("q,k,lam", [(11, 6, 3), (7, 4, 2), (3, 2, 1)])
def test_paley_design_parameters(q, k, lam):
    ctx = build_field(q)
    des = isets.paley_design(ctx)
    assert des.v == len(des.blocks) == q
    assert all(blk.bit_count() == k for blk in des.blocks)
    assert pairwise_lambda(des) == {lam}


def test_paley_wrong_residue():
    with pytest.raises(isets.WrongResidue):
        isets.paley_design(build_field(13))
    with pytest.raises(isets.WrongResidue):
        isets.paired_designs(build_field(11))


def quad_residue_matrix(q):
    """Oracle: M over the integers mod q with M[i][j] = eta(j - i), 0 on the diagonal."""
    squares = {pow(x, 2, q) for x in range(1, q)}
    return [
        [0 if i == j else (1 if (j - i) % q in squares else -1) for j in range(q)]
        for i in range(q)
    ]


def test_paired_designs_incidence_oracle():
    ctx = build_field(5)
    q = 5
    d1, d2 = isets.paired_designs(ctx)
    assert d1.v == d2.v == 2 * q and len(d1.blocks) == len(d2.blocks) == q
    # block sizes: (N_1+J)/2 columns sum to q, (N_2+J)/2 columns to q-1
    assert all(blk.bit_count() == q for blk in d1.blocks)
    assert all(blk.bit_count() == q - 1 for blk in d2.blocks)
    # entry-wise against an integer-arithmetic oracle, using the canonical
    # labeling field element <-> residue via from_int
    m = quad_residue_matrix(q)
    val = {ctx.from_int(c): c for c in range(ctx.q)}
    for x in (ZERO, *ctx.nonzero()):
        for y in (ZERO, *ctx.nonzero()):
            i, j = val[x], val[y]
            m1 = m[i][j] + (1 if i == j else 0)
            m2 = m[i][j] - (1 if i == j else 0)
            m3 = -m1
            b = d1.blocks[canonical_index(y)]
            px = canonical_index(x)  # (0, x) is point px, (1, x) is point q + px
            assert (b >> px) & 1 == (m1 + 1) // 2
            assert (b >> (q + px)) & 1 == (m2 + 1) // 2
            b2 = d2.blocks[canonical_index(y)]
            assert (b2 >> px) & 1 == (m2 + 1) // 2
            assert (b2 >> (q + px)) & 1 == (m3 + 1) // 2
    # M is symmetric because -1 is a square mod q = 1 (mod 4)
    assert all(m[i][j] == m[j][i] for i in range(q) for j in range(q))
    # diagonal of M is all-zero
    assert all(m[i][i] == 0 for i in range(q))


def test_doubled_symmetric_design_parameters():
    ctx = build_field(13)
    des = isets.doubled_symmetric_design(ctx)
    q = 13
    assert des.v == len(des.blocks) == 2 * q + 1
    assert all(blk.bit_count() == q for blk in des.blocks)
    assert pairwise_lambda(des) == {(q - 1) // 2}


def test_build_dlh_sizes(tower11, tower25):
    ext11, _ = tower11
    p8 = isets.find_params(ext11, "q3")
    h0 = 2 * p8.h + (1 - p8.epsilon * p8.delta) // 2
    d = isets.build_dlh(ext11, p8.ell, 8, [h0 + i for i in range(4)])
    assert d.bit_count() == 5  # 2m^2 + m + 2 at m = 1

    ext25, _ = tower25
    p4 = isets.find_params(ext25, "q1")
    ed = p4.epsilon * p4.delta
    first, second = ([p4.h, p4.h + 1], [p4.h + 1, p4.h + 2])
    if ed == -1:
        first, second = second, first
    d0 = isets.build_dlh(ext25, p4.ell, 4, first)
    d1 = isets.build_dlh(ext25, p4.ell, 4, second)
    assert (d0.bit_count(), d1.bit_count()) == (9, 12)  # (m^2, m^2+m) at m = 3


def test_build_dlh_validation(tower11):
    ext, _ = tower11
    with pytest.raises(isets.BadEll):
        isets.build_dlh(ext, 12, 8, [0, 1, 2, 3])  # ell = q+1
    with pytest.raises(isets.BadE):
        isets.build_dlh(ext, 1, 8, list(range(8)))  # H too large
    with pytest.raises(isets.BadE):
        isets.build_dlh(ext, 1, 8, [0, 4, 1, 5])  # misses residues mod 4
    with pytest.raises(isets.BadE):
        isets.build_dlh(ext, 1, 3, [0])  # restriction not quadratic
    with pytest.raises(isets.BadE):
        isets.build_dlh(ext, 1, 4, [0, 1])  # e=4: gcd(4,12)=4, order-1 restriction


def naive_dlh(ext, ell, e, H):
    """The mask of D_{l,H} from its definition: 1 + x omega^ell added and
    multiplied in GF(q^2) for every x of GF(q), no Zech shortcut."""
    base, hset = ext.subfield, {h % e for h in H}
    mask = 0
    for x in (ZERO, *base.nonzero()):
        v = ext.add(ext.one, ext.mul(ext.embed(x), ell))
        assert v != ZERO  # omega^ell is not in GF(q), so 1 + x omega^ell != 0
        if v % e in hset:
            mask |= 1 << canonical_index(x)
    return mask


@pytest.mark.parametrize("q", [11, 25, 27])  # q3; q1 over a tower over a tower; q3 over an odd degree
def test_build_dlh_masks_match_the_definition(q):
    ext, _ = quadratic_tower(q)
    family = "q3" if q % 4 == 3 else "q1"
    e = cs.FAMILIES[family].sign_order
    cases = [(p.ell, hs) for p in islice(isets.admissible_params(ext, family), 4) for hs in isets.h_sets(p)]
    # every ell of the first three cycles mod q + 1, admissible or not, with two H each
    shifted = [h + e // 2 if h % 2 else h for h in range(e // 2)]
    cases += [(ell, hs) for ell in range(1, 3 * (q + 1)) if ell % (q + 1) for hs in (range(e // 2), shifted)]
    for ell, hs in cases:
        assert isets.build_dlh(ext, ell, e, hs) == naive_dlh(ext, ell, e, hs), (ell, hs)


@pytest.mark.parametrize("m", [3, 5])
def test_scheme_dsets_masks_match_the_definition(m):
    part = shipped_partition(m)
    ext, _ = quadratic_tower(part.q)
    h1, h2, h3, h4 = part.h_lists
    ells = [p.ell for p in islice(isets.admissible_params(ext, "regular", part), 4)]
    for hs in (h2, h4):  # the first ells of X_2 and of X_4
        ells += [ell for ell in range(1, ext.order) if ell % part.e in hs and ell % (part.q + 1)][:4]
    for ell in ells:
        s0, s1 = (h1 + h4, h1 + h2) if ell % part.e in h2 else (h2 + h3, h3 + h4)
        want = (naive_dlh(ext, ell, part.e, s0), naive_dlh(ext, ell, part.e, s1))
        assert isets.scheme_dsets(ext, part, ell) == want, ell
    for hs in (h1, h3):  # an ell of X_1 or X_3 cuts out no pair
        ell = next(ell for ell in range(1, ext.order) if ell % part.e in hs)
        with pytest.raises(isets.BadEll, match=r"^omega\^ell must lie in X_2 or X_4$"):
            isets.scheme_dsets(ext, part, ell)


def test_profile_flag_double_count(tower11):
    ext, base = tower11
    p8 = isets.find_params(ext, "q3")
    h0 = 2 * p8.h + (1 - p8.epsilon * p8.delta) // 2
    d = isets.build_dlh(ext, p8.ell, 8, [h0 + i for i in range(4)])
    des = isets.paley_design(base)
    prof = isets.intersection_profile(d, des)
    assert sum(mult for _, mult in prof.profile) == len(des.blocks)
    flags = sum(v * len(idxs) for v, idxs in prof.duals)
    points = [p for p in range(des.v) if d >> p & 1]
    assert flags == sum(blk >> p & 1 for p in points for blk in des.blocks)


def test_profile_empty_set():
    ctx = build_field(7)
    des = isets.paley_design(ctx)
    prof = isets.intersection_profile(0, des)
    assert prof.profile == ((0, len(des.blocks)),)
    with pytest.raises(isets.IntersectionError):
        isets.intersection_profile(1 << des.v, des)


def test_e8_profile_and_branches(tower11):
    ext, base = tower11
    p8 = isets.find_params(ext, "q3")
    h0 = 2 * p8.h + (1 - p8.epsilon * p8.delta) // 2
    d = isets.build_dlh(ext, p8.ell, 8, [h0 + i for i in range(4)])
    prof = isets.intersection_profile(d, isets.paley_design(base))
    assert {v for v, _ in prof.profile} <= {2, 3, 4}  # m=1 collisions collapse the four values
    assert oracles.theorem_order8_branches(ext, p8)


@pytest.mark.parametrize("q", [27, 83, 227])
def test_e8_branches_larger_fields(q):
    ext, _ = quadratic_tower(q)
    params = isets.find_params(ext, "q3")
    assert oracles.theorem_order8_branches(ext, params)


def test_h_sets_rule():
    for h in range(4):
        for eps, delta in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            p8 = isets.ParamChoice("q3", 1, 1, h=h, epsilon=eps, delta=delta)
            h0 = 2 * h if eps * delta == 1 else 2 * h + 1
            assert isets.h_sets(p8) == ([h0, h0 + 1, h0 + 2, h0 + 3],)
            p4 = isets.ParamChoice("q1", 1, 1, h=h, epsilon=eps, delta=delta)
            pair = ([h, h + 1], [h + 1, h + 2])
            assert isets.h_sets(p4) == (pair if eps * delta == 1 else pair[::-1])
    with pytest.raises(isets.IntersectionError):
        isets.h_sets(isets.ParamChoice("regular", 1, 3, tau=1))


def test_find_params_congruences_reverified(tower11, tower25):
    # re-check the defining congruences independently of the scanner
    ext11, _ = tower11
    p8 = isets.find_params(ext11, "q3")
    n, q = ext11.order, 11
    assert p8.ell % (q + 1) != 0
    t_el = ext11.sub((p8.ell * q) % n, p8.ell)
    assert t_el % 8 == (4 + 2 * p8.delta) % 8
    assert p8.ell % 8 == (2 - 5 * p8.epsilon * p8.delta - 6 * p8.h) % 8

    ext25, _ = tower25
    p4 = isets.find_params(ext25, "q1")
    n, q = ext25.order, 25
    t_el = ext25.sub((p4.ell * q) % n, p4.ell)
    assert p4.ell % 4 == (3 + p4.h) % 4
    assert t_el % 4 == (p4.delta * (1 + 2 * p4.h)) % 4


# (family, q, m of the shipped partition or None)
PERIOD_CASES = [
    *(("q3", q, None) for q in (11, 83, 227)),
    *(("q1", q, None) for q in (5, 13, 25, 61, 181)),
    ("regular", 17, 3),
    ("regular", 49, 5),
]


@pytest.mark.parametrize("family,q,m", PERIOD_CASES)
def test_admissible_params_match_the_scan_of_every_ell(family, q, m):
    # one period of 2(q+1) residues, tiled by the period, lists what walking every ell lists
    ext, _ = quadratic_tower(q)
    partition = None if m is None else shipped_partition(m)
    want = list(reference_params(ext, family, partition))
    period = list(isets.admissible_params(ext, family, partition))
    assert period and period[-1].ell < 2 * (q + 1)
    assert tiled(period, q) == want
    assert [isets.admissible_at(ext, family, partition, c.ell) for c in want[-3:]] == want[-3:]


@pytest.mark.parametrize("family,q", [("q3", 1091), ("q1", 841)])
def test_admissible_params_match_the_scan_on_the_first_period(family, q, capsys):
    # q3 q = 1091 has epsilon delta = -1, which no q3 case above has; GF(841) has f = 2
    ext, _ = quadratic_tower(q)
    period = 2 * (q + 1)
    want = list(takewhile(lambda c: c.ell < period, reference_params(ext, family)))
    capsys.readouterr()
    assert main(["search-params", "--family", family, "--q", str(q)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert (printed["period"], printed["max_ell"]) == (period, q * q - 2)
    fields = ("ell", "h", "epsilon", "delta")
    assert printed["rows"] == [dict(zip(fields, (c.ell, c.h, c.epsilon, c.delta))) for c in want]
    assert isets.admissible_at(ext, family, None, want[-1].ell) == want[-1]


def test_admissible_count_matches_remark():
    for family, q, m, count in (
        ("q3", 11, None, (11 * 11 - 1) // 4),  # (q^2-1)/4 for the order-8 family
        ("q3", 83, None, (83 * 83 - 1) // 4),
        ("q1", 13, None, 78),  # q(q-1)/2 for the order-4 family
        ("q1", 25, None, 300),
        ("regular", 17, 3, 88),
        ("regular", 49, 5, 720),
    ):
        ext, _ = quadratic_tower(q)
        partition = None if m is None else shipped_partition(m)
        residues = [r for r in range(1, 2 * (q + 1)) if isets.admissible_at(ext, family, partition, r)]
        assert len(residues) * (q - 1) // 2 == count
        # 1 .. q^2 - 2 is (q-1)/2 whole periods
        assert sum(1 for _ in isets.admissible_params(ext, family, partition)) * (q - 1) // 2 == count


def test_amplitude_vanishes_for_even_index():
    # A_i = sum over H of zeta_e^(-ji) vanishes for even i != 0 whenever H
    # covers each residue mod e/2 exactly once
    for e, h in [(8, [1, 2, 3, 4]), (8, [0, 1, 2, 3]), (4, [2, 3])]:
        ze = cs.roots_of_unity(e)
        for i in range(2, e, 2):
            amp = sum(ze[(-j * i) % e] for j in h)
            assert abs(amp) < 1e-9
        assert abs(sum(ze[0] for _ in h) - e / 2) < 1e-9


def test_size_formulas_sample(tower11, tower25):
    ext11, _ = tower11
    p8 = isets.find_params(ext11, "q3")
    h0 = 2 * p8.h + (1 - p8.epsilon * p8.delta) // 2
    assert oracles.check_size_formulas(ext11, p8.ell, 8, [h0 + i for i in range(4)])

    ext5, _ = quadratic_tower(5)
    p4 = isets.find_params(ext5, "q1")
    assert oracles.check_size_formulas(ext5, p4.ell, 4, [p4.h, p4.h + 1])
    assert oracles.check_size_formulas(ext5, p4.ell, 4, [p4.h + 1, p4.h + 2])


def test_even_m_sizes_and_profiles():
    # even-m family members q <= 200: q = 13 (m=2) and q = 41 (m=4)
    for q, m in [(13, 2), (41, 4)]:
        ext, base = quadratic_tower(q)
        p4 = isets.find_params(ext, "q1")
        first, second = ([p4.h, p4.h + 1], [p4.h + 1, p4.h + 2])
        if p4.epsilon * p4.delta == -1:
            first, second = second, first
        d0 = isets.build_dlh(ext, p4.ell, 4, first)
        d1 = isets.build_dlh(ext, p4.ell, 4, second)
        assert (d0.bit_count(), d1.bit_count()) == (m * m, m * m + m + 1)
        members = d0 | d1 << q
        b1, b2 = isets.paired_designs(base)
        prof1 = isets.intersection_profile(members, b1)
        prof2 = isets.intersection_profile(members, b2)
        assert {v for v, _ in prof1.profile} <= {m * m, m * m + 1, m * m + m + 1, m * m + m + 2}
        assert {v for v, _ in prof2.profile} <= {m * m, m * m + m}


def test_scheme_family_params():
    from qrhadamard import association_schemes as schemes

    ext, _ = quadratic_tower(17)
    part = shipped_partition(3)
    report = schemes.verify_scheme(ext, part)
    assert report.table1_match
    p = isets.find_params(ext, "regular", partition=part)
    assert p.tau == report.tau
    n, q, m = ext.order, 17, 3
    t_el = ext.sub((p.ell * q) % n, p.ell)
    assert t_el % (4 * m * m) == (report.tau * m * m) % (4 * m * m)
    assert p.ell % part.e in set(part.h_lists[1]) | set(part.h_lists[3])


@pytest.mark.parametrize("q,m", [(17, 3), (49, 5)])
def test_scheme_admissible_count_per_coset(q, m):
    # counting oracle: each multiplicative coset of GF(q)* inside X_2 u X_4,
    # other than GF(q)* itself, carries exactly (q-1)/2 admissible ell
    from qrhadamard import association_schemes as schemes

    ext, _ = quadratic_tower(q)
    part = shipped_partition(m)
    assert schemes.verify_scheme(ext, part).table1_match
    # per period, times the (q-1)/2 periods of 1 .. q^2 - 2
    count = sum(1 for _ in isets.admissible_params(ext, "regular", partition=part)) * (q - 1) // 2
    e, n = part.e, ext.order
    h24 = set(part.h_lists[1]) | set(part.h_lists[3])
    cosets = len(h24) * (n // e) // (q - 1)
    fq_classes = {(k * (q + 1)) % n % e for k in range(q - 1)}
    if fq_classes <= h24:
        cosets -= 1
    assert count == cosets * (q - 1) // 2
