import cmath
import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import NaiveField, counter_indices
from qrhadamard import character_sums as cs
from qrhadamard.errors import InputError
from qrhadamard.finite_field import ZERO, _subfield_logs, build_field, prime_power, quadratic_tower

TOL = 1e-6


def closed_form_quadratic_gauss(q, p, s):
    """Oracle for the quadratic Gauss sum of GF(p^s)."""
    if p % 4 == 1:
        return (-1) ** (s - 1) * math.sqrt(q)
    return (-1) ** (s - 1) * (1j**s) * math.sqrt(q)


def odd_prime_powers(limit):
    from sympy import primerange

    out = []
    for p in primerange(3, limit + 1):
        q = p
        s = 1
        while q <= limit:
            out.append((q, p, s))
            q *= p
            s += 1
    return sorted(out)


def test_additive_char_basics():
    ctx = build_field(11)
    assert oracles.additive_char(ctx, ZERO) == 1
    one = ctx.from_int(1)
    assert abs(oracles.additive_char(ctx, one) - cmath.exp(2j * cmath.pi / 11)) < TOL
    total = sum(oracles.additive_char(ctx, x) for x in (ZERO, *ctx.nonzero()))
    assert abs(total) < TOL


def test_additive_char_is_multiplicative_on_sums():
    ctx = build_field(5, 2)
    for x, y in zip(counter_indices(30, ctx.order, 1), counter_indices(30, ctx.order, 2)):
        lhs = oracles.additive_char(ctx, ctx.add(x, y))
        rhs = oracles.additive_char(ctx, x) * oracles.additive_char(ctx, y)
        assert abs(lhs - rhs) < TOL


def test_mult_char_normalization():
    ext, _ = quadratic_tower(11)
    assert oracles.mult_char_exponent(ext, 8, 1) == 1  # chi_8(omega) = zeta_8
    assert oracles.mult_char_exponent(ext, 8, ext.one) == 0
    ctx = build_field(13)
    assert oracles.mult_char_exponent(ctx, 4, 10) == 2
    with pytest.raises(oracles.ZeroArgument) as raised:
        oracles.mult_char_exponent(ctx, 4, ZERO)
    assert raised.type is oracles.ZeroArgument
    with pytest.raises(InputError, match=r"^character order 5 does not divide q-1 = 12$"):
        oracles.mult_char_exponent(ctx, 5, 1)


def test_gauss_sum_trivial_and_quadratic():
    b11 = build_field(11)
    assert abs(cs.gauss_sum(b11, 2, 0) - (-1)) < TOL
    assert abs(cs.gauss_sum(b11, 2, 1) - 1j * math.sqrt(11)) < TOL
    b17 = build_field(17)
    assert abs(cs.gauss_sum(b17, 2, 1) - math.sqrt(17)) < TOL


def test_quadratic_gauss_closed_form_sample():
    for q, p, s in [(9, 3, 2), (25, 5, 2), (27, 3, 3), (49, 7, 2), (121, 11, 2)]:
        ctx = build_field(p, s)
        got = cs.gauss_sum(ctx, 2, 1)
        assert abs(got - closed_form_quadratic_gauss(q, p, s)) < TOL


def test_gauss_sum_magnitude_all_orders():
    for p, f in [(11, 1), (13, 1), (5, 2), (3, 3)]:
        ctx = build_field(p, f)
        n = ctx.order
        for e in range(2, n + 1):
            if n % e:
                continue
            for j in range(1, e):
                g = cs.gauss_sum(ctx, e, j)
                assert abs(abs(g) ** 2 - ctx.q) < TOL


def test_gauss_sum_conjugation_rule():
    ctx = build_field(13)
    for e in (2, 3, 4, 6, 12):
        for j in range(1, e):
            chi_m1 = cs.roots_of_unity(e)[(j * ctx.half) % e]
            lhs = cs.gauss_sum(ctx, e, (-j) % e)
            rhs = chi_m1 * cs.gauss_sum(ctx, e, j).conjugate()
            assert abs(lhs - rhs) < TOL


def test_gauss_periods():
    b11 = build_field(11)
    assert abs(cs.gauss_periods(b11, 1)[0] - (-1)) < TOL
    want = (-1 + 1j * math.sqrt(11)) / 2
    assert abs(cs.gauss_periods(b11, 2)[0] - want) < TOL
    for e in (2, 5, 10):
        total = sum(cs.gauss_periods(b11, e))
        assert abs(total - (-1)) < TOL


def test_gauss_period_quadratic_identity_many_fields():
    for p, f in [(7, 1), (11, 1), (19, 1), (5, 2), (3, 4)]:
        ctx = build_field(p, f)
        g = cs.gauss_sum(ctx, 2, 1)
        for i in (0, 1):
            want = (-1 + (-1) ** i * g) / 2
            assert abs(cs.gauss_periods(ctx, 2)[i] - want) < TOL


@pytest.mark.parametrize("p,f,e", [(17, 2, 12), (7, 4, 20), (3, 6, 8), (2, 4, 5)])
def test_tower_periods_and_cyclotomic_numbers_against_naive_counts(p, f, e):
    """A tower field GF(q'^2) counts its traces and Zech logarithms over
    GF(q'); the periods, and the cyclotomic numbers counted from its Zech
    logarithms, match a brute-force polynomial field's."""
    ext = build_field(p, f)
    assert ext.subfield is not None
    oracle = NaiveField(p, ext.spec.modulus)
    n, zp = ext.order, cs.roots_of_unity(p)
    traces = [Counter(oracle.trace(k) for k in range(r, n, e)) for r in range(e)]
    assert cs.gauss_periods(ext, e) == tuple(sum(c * zp[t] for t, c in sorted(row.items())) for row in traces)
    zech = [oracle.combine([(1, 0), (1, k)]) for k in range(n)]  # log(1 + omega^k)
    assert [ext._zech(k) for k in range(n)] == zech
    cyclotomic = Counter((k % e, z % e) for k, z in enumerate(map(ext._zech, range(n))) if z != ZERO)
    assert cyclotomic == Counter((k % e, z % e) for k, z in enumerate(zech) if z != ZERO)


def test_period_is_translated_class_sum():
    # psi(a C_j) = eta_{j + log a}: the identity the eigenmatrix machinery uses
    ctx = build_field(5, 2)
    e = 8
    per = cs.gauss_periods(ctx, e)
    for a in counter_indices(10, ctx.order, 3):
        for j in range(e):
            brute = sum(
                oracles.additive_char(ctx, ctx.mul(a, x)) for x in ctx.nonzero() if x % e == j
            )
            assert abs(brute - per[(j + a) % e]) < TOL


def test_jacobi_sums():
    b13 = build_field(13)
    j = oracles.jacobi_sum(b13, 2, 4)
    assert abs(abs(j) ** 2 - 13) < TOL
    a, b = round(j.real), round(j.imag)
    assert abs(j - complex(a, b)) < TOL and a % 2 == 1
    assert abs(oracles.jacobi_sum(b13, 1, 1) - 13) < TOL
    # Gauss-sum factorization J(chi1,chi2) = G(chi1)G(chi2)/G(chi1 chi2)
    for e1, e2 in [(2, 4), (3, 4), (4, 4), (12, 3)]:
        lhs = oracles.jacobi_sum(b13, e1, e2)
        e = 12
        j1, j2 = e // e1, e // e2
        g12 = cs.gauss_sum(b13, e, (j1 + j2) % e)
        if abs(g12 + 1) < TOL and (j1 + j2) % e == 0:
            continue  # chi1*chi2 trivial: identity not applicable
        rhs = cs.gauss_sum(b13, e1, 1) * cs.gauss_sum(b13, e2, 1) / g12
        assert abs(lhs - rhs) < TOL


def test_decompose_order8():
    for q in (11, 27, 83):
        ext, base = quadratic_tower(q)
        dec = cs.decompose_gauss(ext, "q3")
        m = dec.m
        assert 4 * m * m + 4 * m + 3 == q
        # reconstruction against the numeric Gauss sum
        target = cs.gauss_sum(ext, 8, 1)
        assert abs(dec.value - target) < TOL
        # q = a^2 + 2 b^2 with a = +-(2m+1), b = +-1
        assert (2 * m + 1) ** 2 + 2 == q


def test_decompose_order4_both_parities():
    for q in (5, 13, 25, 41, 61, 113, 181):
        ext, base = quadratic_tower(q)
        dec = cs.decompose_gauss(ext, "q1")
        m = dec.m
        assert 2 * m * m + 2 * m + 1 == q
        assert dec.form == (cs.FORM_ORDER4_ODD if m % 2 else cs.FORM_ORDER4_EVEN)
        assert abs(abs(dec.value) ** 2 - q) < TOL


def test_decompose_wrong_family():
    ext, _ = quadratic_tower(7)
    with pytest.raises(InputError, match="^q = 7 is not of the q3 form$"):
        cs.decompose_gauss(ext, "q3")


def test_decompose_gauss_refuses_the_regular_family_before_any_sum(monkeypatch):
    ext, _ = quadratic_tower(17)

    def no_sum(*args):
        raise AssertionError("a float Gauss sum ran")

    monkeypatch.setattr(cs, "gauss_sum", no_sum)
    monkeypatch.setattr(cs, "gauss_periods", no_sum)
    with pytest.raises(InputError, match="^no Gauss-sum sign pair for family 'regular'$"):
        cs.decompose_gauss(ext, "regular")


@pytest.mark.parametrize("q", [5, 9, 13, 17, 25, 29, 49, 81, 121, 169, 289, 361, 625, 841])
def test_exact_quadratic_gauss_sum_matches_the_float_sum(q):
    base = build_field(*prime_power(q))
    a, b = cs.quadratic_gauss_sum(base)
    assert b in (0, 1) and (b == 0) == (math.isqrt(q) ** 2 == q)
    assert abs(a + b * math.sqrt(q) - cs.gauss_sum(base, 2, 1)) < TOL


def test_quadratic_gauss_sum_is_refused_where_it_is_not_real():
    for q in (2, 4, 3, 11, 27):
        with pytest.raises(InputError, match=f"^G_q\\(eta\\) is not real at q = {q}$"):
            cs.quadratic_gauss_sum(build_field(*prime_power(q)))


@pytest.mark.parametrize("q,e", [(17, 12), (17, 36), (49, 20), (49, 100), (97, 28)])
def test_exact_periods_match_the_float_periods(q, e):
    ext, base = quadratic_tower(q)
    a, b = cs.quadratic_gauss_sum(base)
    g = a + b * math.sqrt(q)
    pairs = cs.gauss_period_pairs(ext, e)
    assert len(pairs) == e
    for (big_a, big_b), period in zip(pairs, cs.gauss_periods(ext, e)):
        assert abs((big_a + big_b * g) / 2 - period) < TOL


def test_exact_periods_need_an_order_dividing_2_q_plus_1():
    # the tower itself is checked by the entries that reach the periods
    ext, _ = quadratic_tower(17)
    with pytest.raises(InputError, match=r"^period order 8 does not divide 2\(q\+1\) = 36$"):
        cs.gauss_period_pairs(ext, 8)


# each id names the order e of the Gauss sum and q
@pytest.mark.parametrize(
    "family,q",
    [pytest.param("q3", q, id=f"e8-{q}") for q in (11, 27, 83, 227, 443)]
    + [pytest.param("q1", q, id=f"e4-{q}") for q in (5, 13, 25, 41, 61, 113, 181, 841)],
)
def test_exact_signs_match_the_float_oracle(family, q):
    ext, _ = quadratic_tower(q)
    dec = cs.decompose_gauss(ext, family)
    assert cs.gauss_signs(ext, family) == (dec.epsilon, dec.delta)
    # G_{q^2}(chi) = G_q(eta) sum_j B_j zeta^j over j < e/2, numerically
    e = cs.FAMILIES[family].sign_order
    diffs = [b for _, b in cs.gauss_period_pairs(ext, e)]
    assert diffs[e // 2:] == [-b for b in diffs[: e // 2]]
    ze = cs.roots_of_unity(e)
    s = sum(b * ze[j] for j, b in enumerate(diffs[: e // 2]))
    assert abs(cs.gauss_sum(ext.subfield, 2, 1) * s - cs.gauss_sum(ext, e, 1)) < TOL


# q3 towers at e = 8, q1 towers at e = 4
@pytest.mark.parametrize(
    "q,e", [pytest.param(q, e, id=str(q)) for q, e in ((11, 8), (27, 8), (83, 8), (25, 4), (49, 4), (841, 4))]
)
def test_sign_counts_read_the_stored_relative_traces(q, e):
    """The B half of gauss_period_pairs, which gauss_signs reads, equals the
    coset counts c_j - c_(j+e/2) of the per-coset rel_trace loop, c_j summing
    eta(Tr_{q^2/q}(omega^k)) over k <= q with k = j mod e.  Over q = p^2 the
    base is itself a tower over GF(p), so the stored traces, logs in GF(q),
    sit two levels deep."""
    ext, base = quadratic_tower(q)
    assert (base.subfield is None) == (q in (11, 27, 83))
    traces = [oracles.rel_trace(ext, k) for k in range(q + 1)]
    assert list(ext._rel_traces) == traces
    for order in (e, 2 * (q + 1)):
        counts = [0] * order
        for k, tr in enumerate(traces):
            if tr != ZERO:
                counts[k % order] += -1 if tr % 2 else 1
        half = order // 2
        want = [counts[j] - counts[j + half] for j in range(half)]
        assert [b for _, b in cs.gauss_period_pairs(ext, order)] == want + [-b for b in want]


def test_inconsistent_sign_counts_raise_assertion_error():
    # the paper's theorem rules out such counts: they are a bug, not an input
    # q = 11 (m = 1) has counts (-2, 0, 0, 0, 1, 1, 0, 1), so B = (-3, -1, 0, -1) -> (-1, -1)
    assert cs.signs_from_counts((-3, -1, 0, -1), "q3", 1) == (-1, -1)
    for diffs, family, m in (
        ((-3, -1, 1, -1), "q3", 1),  # B_2 != 0
        ((-3, -1, 0, 0), "q3", 1),  # B_1 != B_3
        ((-2, -1, 0, -1), "q3", 1),  # |B_0| != 2m + 1
        ((1, 2), "q1", 2),  # (1, 2) against (a, b) = (3, 2)
    ):
        want = rf"^Gauss-sum period differences {re.escape(str(diffs))} fit no {family} sign pair at m = {m}$"
        with pytest.raises(AssertionError, match=want):
            cs.signs_from_counts(diffs, family, m)


def test_gauss_signs_needs_a_sign_family_of_its_form():
    # the tower itself is checked by the entries that reach the signs
    ext, _ = quadratic_tower(17)
    with pytest.raises(InputError, match="^no Gauss-sum sign pair for family 'regular'$"):
        cs.gauss_signs(ext, "regular")
    with pytest.raises(InputError, match="^q = 7 is not of the q3 form$"):
        cs.gauss_signs(quadratic_tower(7)[0], "q3")


def test_davenport_hasse():
    for q, es in [(5, (2, 4)), (11, (2, 5, 10)), (7, (2, 3, 6))]:
        base = build_field(q)
        ext = build_field(q, 2)
        for e in es:
            assert oracles.check_davenport_hasse(base, ext, e, 2)
    # explicit value: lifted quadratic sum over GF(121) equals -G_11(eta)^2 = 11
    base, ext = build_field(11), build_field(11, 2)
    _, _, t_inv, _ = _subfield_logs(ext, base)
    assert abs(cs.gauss_sum(ext, 2, t_inv % 2) - 11) < TOL
    with pytest.raises(InputError, match="^the lift identity is stated for nontrivial characters$"):
        oracles.check_davenport_hasse(base, ext, 1, 2)


def test_lemma_linear_and_twist():
    ext11, _ = quadratic_tower(11)
    for ell in (1, 3, 5, 7, 13):
        assert oracles.check_lemma_linear(ext11, 8, ell)
    ext5, b5 = quadratic_tower(5)
    assert oracles.check_lemma_linear(ext5, 4, 1)
    for ell in (1, 2, 3):
        for s in (ZERO, *b5.nonzero()):
            assert oracles.check_lemma_quadratic_twist(ext5, 4, ell, s)
    with pytest.raises(InputError, match=r"^ell must not be divisible by q\+1$"):
        oracles.check_lemma_linear(ext11, 8, 12)  # ell = q+1 excluded
    with pytest.raises(InputError, match=r"^ell must not be divisible by q\+1$"):
        oracles.check_lemma_quadratic_twist(ext11, 8, 24, ZERO)


def test_orthogonality_relation_50_pairs():
    ctx = build_field(13)
    n = ctx.order
    xs = counter_indices(50, n, 4)
    js = [1 + j % 11 for j in counter_indices(50, 12, 5)]
    for j, x in zip(js, xs):
        assert oracles.orthogonality_residual(ctx, 12, j, x) < TOL


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=11))
def test_gauss_magnitude_property(j):
    ctx = build_field(13)
    assert abs(abs(cs.gauss_sum(ctx, 12, j)) ** 2 - 13) < TOL


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=167), st.integers(min_value=0, max_value=167))
def test_additive_char_homomorphism_property(i, j):
    ctx = build_field(13, 2)
    lhs = oracles.additive_char(ctx, ctx.add(i, j))
    rhs = oracles.additive_char(ctx, i) * oracles.additive_char(ctx, j)
    assert abs(lhs - rhs) < TOL
