"""Multiplicative characters, Gauss periods, Gauss sums, the table of the
three families (FAMILIES: each row holds its form q(m), sign order, border,
base variant and promised values), and the Gauss-sum sign pair of the q3 and
q1 families.

Multiplicative characters are always normalized so that chi_e(omega) is the
first primitive e-th root of unity; a character of order e is then evaluated
exactly through discrete logs mod e.  Every decision is exact and has one
source: gauss_period_pairs, which reads each Gauss period of order
e | 2(q + 1) as (A + B G_q(eta))/2 from the q + 1 relative traces the tower
stores.  Its B half gives the q3/q1 sign pair (gauss_signs); its pairs decide
the regular family's scheme.  The float sums over all of GF(q^2)
(gauss_periods, gauss_sum, decompose_gauss, compared with tolerance TOL)
cross-check the exact values, and gauss_periods renders the eigenmatrix that
scheme --verify prints.  The brute-force checks of the paper's lemmas live
with the tests, in tests/oracles.py.
"""

from __future__ import annotations

import cmath
from collections import Counter, namedtuple
from functools import lru_cache
from math import isqrt, sqrt

# the exceptions this layer raises, importable from here too
from .errors import CharError, NoMatch, NoSubfield
from .finite_field import ZERO, FieldContext

TOL = 1e-6


@lru_cache(maxsize=None)
def roots_of_unity(m: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(2j * cmath.pi * k / m) for k in range(m))


def _check_order(ctx: FieldContext, e: int) -> None:
    if e < 1 or ctx.order % e:
        raise CharError(f"character order {e} does not divide q-1 = {ctx.order}")


@lru_cache(maxsize=None)
def gauss_periods(ctx: FieldContext, e: int) -> tuple[complex, ...]:
    """Additive-character sums over the e cyclotomic classes."""
    _check_order(ctx, e)
    zp = roots_of_unity(ctx.p)
    # trace value -> count, per class
    counts = [Counter(map(ctx.trace, range(r, ctx.order, e))) for r in range(e)]
    return tuple(sum(c * zp[t] for t, c in sorted(row.items())) for row in counts)


def gauss_sum(ctx: FieldContext, e: int, j: int = 1) -> complex:
    """G_q(chi_e^j) = sum over nonzero x of chi_e^j(x) psi(x)."""
    per = gauss_periods(ctx, e)
    ze = roots_of_unity(e)
    return sum(ze[(j * r) % e] * per[r] for r in range(e))


# ---------------------------------------------------------------------------
# Gauss-sum closed forms: the sign pair decided exactly from the periods'
# B half, and its float oracle

FORM_ORDER8 = "order8"
FORM_ORDER4_ODD = "order4_odd"
FORM_ORDER4_EVEN = "order4_even"


class GaussDecomposition(namedtuple("GaussDecomposition", "epsilon delta form m value")):
    """The sign pair, the closed form and m of a Gauss sum; value is the
    matched closed-form value (complex)."""

    __slots__ = ()


class Family(
    namedtuple("Family", "form sign_order promise border odd_m partition variant promised")
):
    """A family of the paper.  form: (a, b, c) with q = a m^2 + b m + c;
    sign_order: the order (8 or 4) of the character whose Gauss sum over
    GF(q^2) carries the sign pair, None where a scheme partition gives the D
    sets; promise: the row-sum shape of the transformed matrix ("biregular" |
    "regular"); border: the rows and columns of the base matrix before the
    first design row, which the transform never negates; odd_m: whether m
    must be odd; partition: whether it takes a scheme partition; variant:
    construct_q1's variant of the base matrix, None for construct_q3;
    promised: m -> (the D-set sizes, the row sums of the transformed
    matrix)."""

    __slots__ = ()


def _q3_promise(m: int):
    return (2 * m * m + m + 2,), (2 * m - 2, 2 * m + 2)


def _q1_promise(m: int):
    low = 2 * m - 2 if m % 2 else 2 * m
    return (m * m, m * m + m + 1 - m % 2), (low, low + 4)


def _regular_promise(m: int):
    return (m * m - m, m * m), (2 * m,)


# the paper's three families by name: q3 and q1 biregular, regular through a
# four-class scheme
FAMILIES = {
    "q3": Family(form=(4, 4, 3), sign_order=8, promise="biregular", border=1, odd_m=False,
                 partition=False, variant=None, promised=_q3_promise),
    "q1": Family(form=(2, 2, 1), sign_order=4, promise="biregular", border=2, odd_m=False,
                 partition=False, variant="plain", promised=_q1_promise),
    "regular": Family(form=(2, 0, -1), sign_order=None, promise="regular", border=1, odd_m=True,
                      partition=True, variant="negated2", promised=_regular_promise),
}


def family_q(m: int, family: str) -> int:
    """q = 4m^2+4m+3 (q3), 2m^2+2m+1 (q1) or 2m^2-1 (regular)."""
    a, b, c = FAMILIES[family].form
    return a * m * m + b * m + c


def family_m(q: int, family: str) -> int:
    """The m >= 0 with family_q(m, family) == q.  Each form has
    m^2 - 1 <= q // a <= m^2 + m, so m is isqrt(q // a) or the next integer."""
    a, b, c = FAMILIES[family].form
    if q >= 2:  # no field has fewer than 2 elements
        r = isqrt(q // a)
        for m in (r, r + 1):
            if a * m * m + b * m + c == q:
                return m
    raise CharError(f"q = {q} is not of the {family} form")


def quadratic_gauss_sum(ctx: FieldContext) -> tuple[int, int]:
    """G_q(eta) = (-1)^(f-1) (sqrt p)^f for p = 1 mod 4 and (-1)^(f-1)
    (i sqrt p)^f for p = 3 mod 4 (Berndt, Evans and Williams, *Gauss and
    Jacobi Sums*, 1998), as (a, b) with G_q(eta) = a + b sqrt(q).  It is real
    only for q = 1 mod 4: sqrt(q) for odd f, an integer (b = 0) for even f."""
    p, f = ctx.p, ctx.f
    if p == 2 or ctx.q % 4 != 1:
        raise CharError(f"G_q(eta) is not real at q = {ctx.q}")
    if f % 2:  # then p = 1 mod 4
        return 0, 1
    i_f = (-1) ** (f // 2) if p % 4 == 3 else 1
    return -i_f * p ** (f // 2), 0


def gauss_period_pairs(ext: FieldContext, e: int) -> tuple[tuple[int, int], ...]:
    """(A_r, B_r) with 2 P_e[r] = A_r + B_r G_q(eta), r mod e, for e | 2(q+1).

    Class r' mod 2(q + 1) is omega^r' times the squares s of GF(q)*, whose
    period sum_s psi_q(s t), t = Tr_{q^2/q}(omega^r'), is (q - 1)/2 for t = 0
    and (-1 + eta(t) G_q(eta))/2 otherwise.  Class r mod e unites k = 2(q+1)/e
    of them; z_r have t = 0, so A_r = q z_r - k.  omega^(r'+q+1) = N(omega)
    omega^r' with N(omega) a non-square, so the upper q + 1 classes flip eta:
    the tower's q + 1 stored relative traces decide every period."""
    if ext.subfield is None:
        raise NoSubfield("exact periods need the quadratic tower GF(q) in GF(q^2)")
    q = ext.subfield.q
    if e < 1 or 2 * (q + 1) % e:
        raise CharError(f"period order {e} does not divide 2(q+1) = {2 * (q + 1)}")
    zeros, etas = [0] * e, [0] * e
    for r, tr in enumerate(ext._rel_traces):
        for r2, sign in ((r % e, 1), ((r + q + 1) % e, -1)):
            if tr == ZERO:
                zeros[r2] += 1
            else:
                etas[r2] += -sign if tr % 2 else sign
    k = 2 * (q + 1) // e
    return tuple((q * z - k, b) for z, b in zip(zeros, etas))


def signs_from_counts(diffs, family: str, m: int) -> tuple[int, int]:
    """(epsilon, delta) of the closed form that sum_j B_j zeta_e^j over
    j < e/2 equals, e the family's sign order and diffs = (B_0, ...,
    B_(e/2-1)) as gauss_signs reads them.

    e = 8 (zeta^4 = -1, sqrt(-2) = zeta + zeta^3): eps (2m+1) + delta sqrt(-2)
    has B = (eps (2m+1), delta, 0, delta).
    e = 4 (G_q(eta)^2 = q for q = 1 mod 4): eps a + delta b i has
    B = (eps a, delta b), where (a, b) = (m, m+1) for odd m and (m+1, m) for
    even m.  Any other vector raises NoMatch."""
    for eps in (1, -1):
        for delta in (1, -1):
            if FAMILIES[family].sign_order == 8:
                want = (eps * (2 * m + 1), delta, 0, delta)
            else:
                a, b = (m, m + 1) if m % 2 else (m + 1, m)
                want = (eps * a, delta * b)
            if diffs == want:
                return eps, delta
    raise NoMatch(f"Gauss-sum period differences {diffs} fit no {family} sign pair at m = {m}")


def gauss_signs(ext: FieldContext, family: str) -> tuple[int, int]:
    """The sign pair (epsilon, delta) of the family's Gauss-sum closed form,
    decided exactly; decompose_gauss is its float oracle.

    The sign order e (8 or 4) divides 2(q + 1) but not q + 1, so class
    r + e/2 is class r times a nonsquare of GF(q): in gauss_period_pairs(ext,
    e), B_(r+e/2) = -B_r and the A_r cancel from G_{q^2}(chi_e) = sum_r
    zeta_e^r P_e[r].  So G_{q^2}(chi_e) = G_q(eta) sum_j B_j zeta_e^j, j < e/2."""
    order = _sign_order(family)
    if ext.subfield is None:
        raise NoSubfield("the sign pair needs the quadratic tower GF(q) in GF(q^2)")
    m = family_m(ext.subfield.q, family)
    pairs = gauss_period_pairs(ext, order)
    return signs_from_counts(tuple(b for _, b in pairs[: order // 2]), family, m)


def decompose_gauss(ext: FieldContext, family: str) -> GaussDecomposition:
    """Resolve the sign pair (epsilon, delta) of the order-8 or order-4
    Gauss-sum closed form over GF(q^2) against the numeric sum."""
    order = _sign_order(family)  # refuses a family without a sign pair before any sum
    if ext.subfield is None:
        raise NoSubfield("decomposition needs the quadratic tower GF(q) in GF(q^2)")
    base = ext.subfield
    q = base.q
    m = family_m(q, family)
    g_eta = gauss_sum(base, 2, 1)
    if order == 8:
        target = gauss_sum(ext, 8, 1)
        sqrt_m2 = 1j * sqrt(2.0)
        for eps in (1, -1):
            for delta in (1, -1):
                cand = g_eta * (eps * (2 * m + 1) + delta * sqrt_m2)
                if abs(cand - target) < TOL:
                    return GaussDecomposition(eps, delta, FORM_ORDER8, m, cand)
        raise NoMatch(f"no order-8 sign pattern matches at q = {q}")
    # sign order 4
    target = g_eta * gauss_sum(ext, 4, 1) / q
    form = FORM_ORDER4_ODD if m % 2 else FORM_ORDER4_EVEN
    a, b = (m, m + 1) if m % 2 else (m + 1, m)
    for eps in (1, -1):
        for delta in (1, -1):
            cand = eps * a + delta * b * 1j
            if abs(cand - target) < TOL:
                return GaussDecomposition(eps, delta, form, m, cand)
    raise NoMatch(f"no order-4 sign pattern matches at q = {q}")


def _sign_order(family: str) -> int:
    order = FAMILIES[family].sign_order
    if order is None:
        raise CharError(f"no Gauss-sum sign pair for family {family!r}")
    return order


def clear_caches() -> None:
    gauss_periods.cache_clear()
    roots_of_unity.cache_clear()
