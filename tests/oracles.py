"""The paper's numeric oracles: brute-force character sums checked against
their closed forms, the size formulas of the D_{l,H} sets, the branches of
the order-8 theorem, and the Bannai-Muzychuk fusion criterion.

The sums here are floats computed the long way, over a whole field, and
compared with absolute tolerance TOL (character_sums.TOL).  The package
runs none of them; the tests use them to cross-check its exact code paths
against the paper's formulas, and import this module as ``import oracles``.
"""

from __future__ import annotations

from math import gcd

from qrhadamard.character_sums import (
    TOL,
    _check_order,
    gauss_periods,
    gauss_sum,
    roots_of_unity,
)
from qrhadamard.errors import CharError, FieldError, NoSubfield, SchemeError
from qrhadamard.finite_field import ZERO, FieldContext, _subfield_logs
from qrhadamard.intersection_sets import ParamChoice, _translate_masks, _validate_dlh_args, build_dlh, h_sets


class ZeroArgument(CharError):
    """A character identity asked about the zero element, where it is not stated."""


# ---------------------------------------------------------------------------
# the subfield of a quadratic tower


def project(ext: FieldContext, y: int) -> int:
    """The subfield element that ext.embed maps to y; y must lie in GF(q)."""
    sub = ext._require_subfield()
    if y == ZERO:
        return ZERO
    if y % ext._nu:
        raise FieldError("element does not lie in the subfield")
    return y // ext._nu * ext._project_mult % sub.order


def rel_trace(ext: FieldContext, x: int) -> int:
    """Relative trace x + x^q of GF(q^2) into subfield representation."""
    sub = ext._require_subfield()
    return project(ext, ext.add(x, ext.pow(x, sub.q)) if x != ZERO else ZERO)

# ---------------------------------------------------------------------------
# characters and character sums


def additive_char(ctx: FieldContext, x: int) -> complex:
    """Canonical additive character zeta_p^Tr(x); psi(0) = 1."""
    if x == ZERO:
        return 1 + 0j
    return roots_of_unity(ctx.p)[ctx.trace(x)]


def mult_char_exponent(ctx: FieldContext, e: int, x: int) -> int:
    """Exponent a with chi_e(x) = zeta_e^a, for nonzero x."""
    _check_order(ctx, e)
    if x == ZERO:
        raise ZeroArgument("multiplicative character exponent of zero")
    return x % e


def char_value(ctx: FieldContext, e: int, j: int, x: int) -> complex:
    """chi_e^j(x), extended to 0 by 1 for the trivial character and 0 otherwise."""
    _check_order(ctx, e)
    if x == ZERO:
        return (1 + 0j) if j % e == 0 else 0j
    return roots_of_unity(e)[(j * x) % e]


def jacobi_sum(ctx: FieldContext, e1: int, e2: int) -> complex:
    """J_q(chi_e1, chi_e2) over all of F_q, with the chi(0) convention."""
    _check_order(ctx, e1)
    _check_order(ctx, e2)
    total = 0j
    one = ctx.one
    for x in (ZERO, *ctx.nonzero()):
        total += char_value(ctx, e1, 1, x) * char_value(ctx, e2, 1, ctx.sub(one, x))
    return total


def orthogonality_residual(ctx: FieldContext, e: int, j: int, x: int) -> float:
    """|chi(x) - chi(-1) G(chi)/q * sum_a chi^-1(a) psi(ax)| for nontrivial chi."""
    if j % e == 0:
        raise CharError("orthogonality identity needs a nontrivial character")
    if x == ZERO:
        raise ZeroArgument("identity stated for nonzero x")
    ze = roots_of_unity(e)
    rhs = sum(ze[(-j * a) % e] * additive_char(ctx, ctx.mul(a, x)) for a in ctx.nonzero())
    chi_m1 = ze[(j * ctx.half) % e]
    rhs *= chi_m1 * gauss_sum(ctx, e, j) / ctx.q
    return abs(ze[(j * x) % e] - rhs)


def check_davenport_hasse(base: FieldContext, ext: FieldContext, e: int, d: int) -> bool:
    """Lifted-character identity G_{q^d}(chi) = (-1)^(d-1) G_q(chi')^d."""
    if ext.p != base.p or ext.f != base.f * d or d < 2:
        raise CharError("ext must be the degree-d extension of base")
    _check_order(base, e)
    if e == 1:
        raise CharError("the lift identity is stated for nontrivial characters")
    _, _, t_inv, _ = _subfield_logs(ext, base)
    lifted = gauss_sum(ext, e, t_inv % e)
    direct = (-1) ** (d - 1) * gauss_sum(base, e, 1) ** d
    return abs(lifted - direct) < TOL


def _restriction_is_quadratic(ext: FieldContext, e: int) -> None:
    q = ext.subfield.q
    if e // gcd(e, q + 1) != 2:
        raise CharError(f"chi_{e} does not restrict to the quadratic character of GF({q})")


def check_lemma_linear(ext: FieldContext, e: int, ell: int) -> bool:
    """Brute-force sum of chi_e(1 + omega^ell x) over x in GF(q) against its
    Gauss-sum closed form."""
    if ext.subfield is None:
        raise NoSubfield("requires the quadratic tower")
    base = ext.subfield
    q, n = base.q, ext.order
    if ell % (q + 1) == 0:
        raise CharError("ell must not be divisible by q+1")
    _check_order(ext, e)
    _restriction_is_quadratic(ext, e)
    ze = roots_of_unity(e)
    lell = ell % n
    lhs = 0j
    for x in (ZERO, *base.nonzero()):
        v = ext.add(ext.one, ext.mul(ext.embed(x), lell))
        lhs += ze[v % e]
    t_el = ext.sub((ell * q) % n, lell)
    rhs = (
        ze[ext.half % e]
        * gauss_sum(ext, e, 1)
        * gauss_sum(base, 2, 1)
        / q
        * ze[(-q * ell) % e]
        * ze[t_el % e]
    )
    return abs(lhs - rhs) < TOL


def check_lemma_quadratic_twist(ext: FieldContext, e: int, ell: int, s: int) -> bool:
    """Brute-force sum of chi_e(1 + omega^ell x) eta(x - s) over x != s in
    GF(q) against its closed form; s is a base-field element."""
    if ext.subfield is None:
        raise NoSubfield("requires the quadratic tower")
    base = ext.subfield
    q, n = base.q, ext.order
    if ell % (q + 1) == 0:
        raise CharError("ell must not be divisible by q+1")
    _check_order(ext, e)
    _restriction_is_quadratic(ext, e)
    ze = roots_of_unity(e)
    lell = ell % n
    lhs = 0j
    for x in (ZERO, *base.nonzero()):
        if x == s:
            continue
        v = ext.add(ext.one, ext.mul(ext.embed(x), lell))
        eta = -1.0 if base.sub(x, s) % 2 else 1.0
        lhs += ze[v % e] * eta
    t_el = ext.sub((ell * q) % n, lell)
    u = ext.add(ext.one, ext.mul(ext.embed(s), (ell * q) % n))  # 1 + omega^{q ell} s
    rhs = (
        gauss_sum(ext, e, 1)
        * gauss_sum(base, 2, 1)
        / q
        * ze[(-u) % e]
        * ze[t_el % e]
        - ze[lell % e]
    )
    return abs(lhs - rhs) < TOL

# ---------------------------------------------------------------------------
# the D_{l,H} size formulas and the order-8 theorem


def _rounds_to(value: complex, target: int) -> bool:
    return abs(value.imag) < TOL and abs(value.real - target) < TOL


def check_size_formulas(ext: FieldContext, ell: int, e: int, H) -> bool:
    """Cross-check both size formulas and both block-count formulas against
    exact enumeration, for every shift s."""
    hset = _validate_dlh_args(ext, ell, e, H)
    base = ext.subfield
    q, n = base.q, ext.order
    dmask = build_dlh(ext, ell, e, H)
    hs = sorted(hset)
    ze = roots_of_unity(e)
    g2 = [gauss_sum(ext, e, j) for j in range(e)]
    g_eta = gauss_sum(base, 2, 1)
    per2 = gauss_periods(ext, e)
    chi_m1 = ze[ext.half % e]
    amp = [sum(ze[(-j * i) % e] for j in hs) for i in range(e)]
    odd = range(1, e, 2)
    lell = ell % n
    lq = (ell * q) % n
    t_el = ext.sub(lq, lell)
    t_inv = -t_el % n

    size_a = q / 2 + chi_m1 * g_eta / (e * q) * sum(
        amp[i] * g2[i] * ze[(-i * lq) % e] * ze[(i * t_el) % e] for i in odd
    )
    w = ext.mul(lq, t_inv)
    size_b = (
        q / 2
        + chi_m1 * g_eta / (2 * q)
        + chi_m1 * g_eta / q * sum(per2[(j + w) % e] for j in hs)
    )
    size = dmask.bit_count()
    if not (_rounds_to(size_a, size) and _rounds_to(size_b, size)):
        return False

    sq_masks = _translate_masks(base, False)
    xi_l = 1 if lell % e in hset else 0
    c2 = (ext.half + t_inv + lq) % n % e  # class of -T^{-1} omega^{q ell}
    minus_lq = (ext.half + lq) % n
    for si, s in enumerate((ZERO, *base.nonzero())):
        enum = (dmask & sq_masks[si]).bit_count()
        u1 = ext.add(ext.one, ext.mul(ext.embed(s), lell))  # 1 + omega^ell s
        u2 = ext.add(ext.one, ext.mul(ext.embed(s), lq))  # 1 + omega^{q ell} s
        n_a = (
            (q - 1) / 4
            - 1 / (2 * e) * sum(amp[i] * (ze[(i * u1) % e] + ze[(i * lell) % e]) for i in odd)
            + g_eta
            / (2 * e * q)
            * sum(
                amp[i]
                * g2[i]
                * ze[(i * t_el) % e]
                * (ze[(-i * u2) % e] + ze[(-i * minus_lq) % e])
                for i in odd
            )
        )
        xi_s = 1 if u1 % e in hset else 0
        c1 = ext.mul(t_inv, u2) % e
        n_b = (
            (q - 1) / 4
            + (1 - xi_s - xi_l) / 2
            + g_eta
            / (2 * q)
            * (
                1
                + sum(per2[(i + c1) % e] for i in hs)
                + sum(per2[(i + c2) % e] for i in hs)
            )
        )
        if not (_rounds_to(n_a, enum) and _rounds_to(n_b, enum)):
            return False
    return True


def theorem_order8_branches(ext: FieldContext, params: ParamChoice) -> bool:
    """Check that each measured block count lands in the branch selected by
    the order-8 character of 1 + omega^ell s."""
    base = ext.subfield
    q, n = base.q, ext.order
    m, hp = params.m, params.h
    eps_delta = params.epsilon * params.delta
    dmask = build_dlh(ext, params.ell, 8, h_sets(params)[0])
    blocks = _translate_masks(base, True)
    if eps_delta == 1:
        branch = {0: m * m + m + 2, 3: m * m + m + 2, 6: m * m + m + 2,
                  1: m * m + 2, 2: m * m + 1, 4: m * m + 1, 7: m * m + 1,
                  5: m * m + m + 1}
    else:
        branch = {1: m * m + m + 2, 4: m * m + m + 2, 6: m * m + m + 2,
                  3: m * m + 2, 0: m * m + 1, 2: m * m + 1, 5: m * m + 1,
                  7: m * m + m + 1}
    lell = params.ell % n
    for si, s in enumerate((ZERO, *base.nonzero())):
        u1 = ext.add(ext.one, ext.mul(ext.embed(s), lell))
        expected = branch[(u1 - 2 * hp) % 8]
        if (dmask & blocks[si]).bit_count() != expected:
            return False
    return True

# ---------------------------------------------------------------------------
# association schemes


def bannai_muzychuk_check(eigen_rows, groups) -> bool:
    """Fusion criterion: grouping columns of the first eigenmatrix by the
    given partition (group 0 = {0}) admits a matching row partition with
    constant block row sums iff the distinct row signatures are no more
    numerous than the groups."""
    groups = [tuple(g) for g in groups]
    flat = sorted(j for g in groups for j in g)
    if flat != list(range(len(eigen_rows[0]))) or groups[0] != (0,):
        raise SchemeError("groups must partition the column set with group 0 = {0}")
    signatures: list[tuple[complex, ...]] = []
    for row in eigen_rows:
        signatures.append(tuple(sum(row[j] for j in g) for g in groups))
    clusters: list[tuple[complex, ...]] = []
    for sig in signatures:
        if not any(all(abs(a - b) < TOL for a, b in zip(sig, c)) for c in clusters):
            clusters.append(sig)
    return len(clusters) <= len(groups)
