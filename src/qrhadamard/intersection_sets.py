"""Quadratic-residue block designs, the point sets D_{l,H} cut out of GF(q)
by cyclotomic classes of GF(q^2), their intersection profiles and duals,
and the admissible-parameter search over one period of ell.

The designs and profiles are the paper's proof objects: the D sets meet the
blocks in few sizes, and that fixes the row sums of the signed matrix.
hadamard.transform builds none of them; it signs each row by its own sum
and checks the sums.  The tests compare its rows with the designs'.

A point set is an int mask over point numbers, and so is a block.  Over
GF(q) the number of x is its canonical index idx(x): 0 for the field's 0,
k + 1 for omega^k.  Each design builder states how it numbers its points.
All set membership is decided by exact discrete logs.  The character-sum
size formulas that cross-check the enumerated counts live in the tests'
float oracles (tests/oracles.py).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd

from . import character_sums as cs
# the exceptions this layer raises, importable from here too
from .errors import BadE, BadEll, IntersectionError, NotFound, WrongResidue
from .finite_field import ZERO, FieldContext, NoSubfield


class BlockDesign(namedtuple("BlockDesign", "v blocks")):
    """v points numbered 0..v-1, and blocks as bitmasks over those numbers;
    each builder states its numbering."""

    __slots__ = ()


class IntersectionSet(namedtuple("IntersectionSet", "profile duals")):
    """A point set's profile as (size, multiplicity) pairs with sizes
    ascending, and its duals as (size, block indices) pairs."""

    __slots__ = ()


class ParamChoice(
    namedtuple("ParamChoice", "family ell m h epsilon delta tau", defaults=(None, None, None, None))
):
    """An admissible parameter choice of a family, by its FAMILIES name: ell
    and m, with h, epsilon, delta and tau None where the family has none."""

    __slots__ = ()


@lru_cache(maxsize=None)
def _zech_masks(ctx: FieldContext) -> tuple[tuple[int, int], tuple[int, int]]:
    """For each parity of j: the mask of the Zech logs Z(j) = log(1 + omega^j)
    over the nonzero j of that parity, and 1 where Z(j) is ZERO.  One pass
    over the Zech logs serves both parities of class_translates."""
    masks, zero_bit = [0, 0], [0, 0]
    for j, z in enumerate(map(ctx._zech, ctx.nonzero())):
        if z == ZERO:
            zero_bit[j % 2] = 1
        else:
            masks[j % 2] |= 1 << z
    return tuple(masks), tuple(zero_bit)


@lru_cache(maxsize=None)
def class_translates(ctx: FieldContext, parity: int) -> tuple[int, ...]:
    """Masks of x + C_parity over canonical point indices, one per x in
    canonical order; C_0 are the nonzero squares and C_1 the nonsquares of
    GF(q), q odd.

    For x = omega^i, x + omega^j = omega^(i + Z(j - i)) with the Zech log
    Z(k) = log(1 + omega^k), and j - i runs over the logs of parity
    (parity + i) mod 2.  So the mask of x is the cyclic rotation by i of one
    of two parity masks, plus the bit of 0 where Z(j - i) is ZERO.
    """
    n = ctx.order
    masks, zero_bit = _zech_masks(ctx)
    # bits 1..n of doubled >> (n - i) are the mask rotated left by i, shifted past the bit of 0
    doubled = [(m | m << n) << 1 for m in masks]
    full = ((1 << n) - 1) << 1
    rows = [sum(1 << (1 + j) for j in range(parity, n, 2))]  # x = 0: the class itself
    for i in range(n):
        r = (parity + i) % 2
        rows.append(doubled[r] >> (n - i) & full | zero_bit[r])
    return tuple(rows)


@lru_cache(maxsize=None)
def _translate_masks(ctx: FieldContext, with_zero: bool) -> tuple[int, ...]:
    """Masks of (C_0 (+ {0})) + s over canonical point indices, one per s."""
    rows = class_translates(ctx, 0)
    if not with_zero:
        return rows
    return tuple(m | 1 << k for k, m in enumerate(rows))


def paley_design(ctx: FieldContext) -> BlockDesign:
    """Translates of the squares-with-zero block, q = 3 mod 4; point x is
    numbered idx(x), its canonical index."""
    if ctx.q % 4 != 3:
        raise WrongResidue(f"q = {ctx.q} is not 3 mod 4")
    return BlockDesign(ctx.q, _translate_masks(ctx, True))


def paired_designs(ctx: FieldContext) -> tuple[BlockDesign, BlockDesign]:
    """The two block designs on {0,1} x F_q carried by the doubled
    quadratic-residue matrix, q = 1 mod 4; point (i, x) is numbered
    i*q + idx(x)."""
    if ctx.q % 4 != 1:
        raise WrongResidue(f"q = {ctx.q} is not 1 mod 4")
    q = ctx.q
    cz = _translate_masks(ctx, True)
    c = _translate_masks(ctx, False)
    ns = class_translates(ctx, 1)
    blocks1 = tuple(czm | (cm << q) for czm, cm in zip(cz, c))
    blocks2 = tuple(cm | (nm << q) for cm, nm in zip(c, ns))
    return (BlockDesign(2 * q, blocks1), BlockDesign(2 * q, blocks2))


def doubled_symmetric_design(ctx: FieldContext) -> BlockDesign:
    """The symmetric 2-(2q+1, q, (q-1)/2) design on a star point plus
    {0,1} x F_q, q = 1 mod 4; the star is numbered 0 and (i, x) is numbered
    1 + i*q + idx(x).  Blocks mirror the point order: the star's block
    {1} x F_q, then the blocks of the paired designs past the star, those of
    the second with the star."""
    d1, d2 = paired_designs(ctx)
    q = ctx.q
    blocks = [((1 << q) - 1) << (1 + q)]
    blocks += [b << 1 for b in d1.blocks]
    blocks += [1 | b << 1 for b in d2.blocks]
    return BlockDesign(2 * q + 1, tuple(blocks))


def intersection_profile(mask: int, design: BlockDesign) -> IntersectionSet:
    """Exact intersection sizes against every block of a point set, given as
    a mask over the design's point numbers."""
    if mask >> design.v:
        raise IntersectionError(f"point mask has a bit outside the design's {design.v} points")
    tally: dict[int, list[int]] = {}
    for idx, blk in enumerate(design.blocks):
        c = (mask & blk).bit_count()
        tally.setdefault(c, []).append(idx)
    sizes = sorted(tally)
    return IntersectionSet(
        profile=tuple((v, len(tally[v])) for v in sizes),
        duals=tuple((v, tuple(tally[v])) for v in sizes),
    )


def _validate_dlh_args(ext: FieldContext, ell: int, e: int, H) -> frozenset[int]:
    if ext.subfield is None:
        raise NoSubfield("D_{l,H} lives in a quadratic tower")
    q = ext.subfield.q
    if e < 2 or ext.order % e:
        raise BadE(f"e = {e} does not divide q^2-1")
    if e // gcd(e, q + 1) != 2:
        raise BadE(f"e = {e} does not restrict to the quadratic character")
    hset = frozenset(h % e for h in H)
    if len(hset) != e // 2 or {h % (e // 2) for h in hset} != set(range(e // 2)):
        raise BadE("H must hit every residue mod e/2 exactly once")
    if ell % (q + 1) == 0:
        raise BadEll(f"ell = {ell} is divisible by q+1")
    return hset


def build_dlh(ext: FieldContext, ell: int, e: int, H) -> int:
    """The mask over canonical indices of GF(q) (bit 0 for 0, bit k + 1 for
    omega^k) of the points x with 1 + x omega^ell in the H-classes of
    GF(q^2)."""
    hset = _validate_dlh_args(ext, ell, e, H)
    n, lell = ext.order, ell % ext.order
    # 1 + x omega^ell is 1 (log 0) for x = 0, else omega^Z(log x + ell)
    mask = 1 if 0 in hset else 0
    for x in ext.subfield.nonzero():
        if ext._zech((ext.embed(x) + lell) % n) % e in hset:
            mask |= 2 << x
    return mask


def admissible_at(ext: FieldContext, family: str, partition, ell: int) -> ParamChoice | None:
    """The ParamChoice of ell for a family, by its FAMILIES name, if (h, ell)
    is admissible, else None: one check, no scan.

    Each condition is an exact congruence on ell and on
    t = log(omega^(q ell) - omega^ell) = ell + log(omega^((q-1) ell) - 1),
    whose second term depends on ell only through ell mod (q+1).  The
    moduli, 8 (q3), 4 (q1), e and 4m^2 (regular), divide q^2 - 1 and
    P = 2(q+1): q + 1 = 4 mod 8 for q3, q + 1 = 2 mod 4 for q1, and
    e | 4m^2 = 2(q+1) for the regular family.  So the ParamChoice of ell, but
    for its ell, depends only on ell mod P, and 1 .. q^2 - 2 is (q-1)/2
    whole periods; residue 0 is never admissible.  The answer repeats past
    q^2 - 2 too, where no ell is admissible: hadamard.transform checks the
    range.
    """
    return _admissibility(ext, family, partition)(ell)


def _admissibility(ext: FieldContext, family: str, partition):
    """admissible_at as a function of ell alone, with the sign pair or the
    scheme's tau, which every ell shares, computed at the call."""
    if ext.subfield is None:
        raise NoSubfield("parameter search needs the quadratic tower")
    q = ext.subfield.q
    m = cs.family_m(q, family)
    order = cs.FAMILIES[family].sign_order
    if order is None:  # the scheme partition's classes and tau
        if partition is None:
            raise IntersectionError(f"the {family} family needs a scheme partition")
        from .association_schemes import require_scheme

        tau = require_scheme(ext, partition).tau
        four_m2 = 4 * m * m
        classes_24 = set(partition.h_lists[1]) | set(partition.h_lists[3])
    else:
        eps, delta = cs.gauss_signs(ext, family)

    def at(ell: int) -> ParamChoice | None:
        if ell % (q + 1) == 0:
            return None
        t = ell + ext.sub((q - 1) * (ell % (q + 1)), ext.one)
        if order == 8:
            if ell % 2 and t % 8 == (4 + 2 * delta) % 8:
                h = (ell + 5 * eps * delta - 2) // 2 % 4  # (2 - 5 eps delta - ell) = -2h mod 8
                return ParamChoice(family, ell, m, h=h, epsilon=eps, delta=delta)
        elif order == 4:
            h = (ell - 3) % 4
            if t % 4 == delta * (1 + 2 * h) % 4:
                return ParamChoice(family, ell, m, h=h, epsilon=eps, delta=delta)
        elif ell % partition.e in classes_24 and t % four_m2 == tau * m * m % four_m2:
            return ParamChoice(family, ell, m, tau=tau)
        return None

    return at


def admissible_params(ext: FieldContext, family: str, partition=None):
    """An iterator of a family's admissible ParamChoices on one period, in
    ascending ell: admissible_at's for ell in 1 .. P - 1, P = 2(q+1).  Every
    admissible ell up to q^2 - 2 is one of these plus a multiple of P, with
    the same other fields, and no other ell is (see admissible_at).  A
    partition is checked at the call, before any pair; only that check loads
    association_schemes."""
    at = _admissibility(ext, family, partition)
    return filter(None, map(at, range(1, 2 * (ext.subfield.q + 1))))


def h_sets(params: ParamChoice) -> tuple[list[int], ...]:
    """The H of each D_{l,H} a biregular transform cuts out, by the family's
    sign order, from h and epsilon*delta: four consecutive order-8 classes from
    h0 = 2h + (1 - epsilon delta)/2 for order 8; for order 4 the pair
    [h, h+1], [h+1, h+2], swapped when epsilon delta = -1."""
    order = cs.FAMILIES[params.family].sign_order
    if order is None:
        raise IntersectionError(f"no H rule for family {params.family!r}")
    hp, eps_delta = params.h, params.epsilon * params.delta
    if order == 8:
        h0 = 2 * hp + (1 - eps_delta) // 2
        return ([h0, h0 + 1, h0 + 2, h0 + 3],)
    first, second = [hp, hp + 1], [hp + 1, hp + 2]
    return (first, second) if eps_delta == 1 else (second, first)


def scheme_dsets(ext: FieldContext, part, ell: int) -> tuple[int, int]:
    """The masks (as build_dlh) of the pair of point sets cut out of GF(q)
    by S_0, S_1 for omega^ell in X_2 or X_4 of a scheme partition; unchecked
    here.  hadamard.transform checks that they have sizes (m^2-m, m^2) and
    that every signed row sums to 2m, which their meeting the doubled
    symmetric design in m^2-m or m^2 points proves."""
    h1, h2, h3, h4 = part.h_lists
    r = ell % part.e
    if r in h2:
        s0, s1 = h1 + h4, h1 + h2
    elif r in h4:
        s0, s1 = h2 + h3, h3 + h4
    else:
        raise BadEll("omega^ell must lie in X_2 or X_4")
    return build_dlh(ext, ell, part.e, s0), build_dlh(ext, ell, part.e, s1)


def find_params(ext: FieldContext, family: str, partition=None) -> ParamChoice:
    """Smallest admissible ell with its h; NotFound signals a bug."""
    for choice in admissible_params(ext, family, partition):
        return choice
    raise NotFound(f"no admissible parameters for family {family} at q = {ext.subfield.q}")


def clear_caches() -> None:
    _zech_masks.cache_clear()
    class_translates.cache_clear()
    _translate_masks.cache_clear()
