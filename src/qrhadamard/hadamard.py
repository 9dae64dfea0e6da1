"""The two quadratic-residue base constructions, the ladder of the paper's
instances, and the row/column signing transform that reaches maximum
excess.  The D sets and the signing are int masks: transform negates the
columns of the D sets in one mask, then, in another, every row past the
family's border whose sum is not positive, bit i set for row or column i;
it builds no block design.  transform proves its output Hadamard with the
one check that ``verify`` runs, qrhadamard.matrix.hadamard_violation.  Its
first certificate takes O(n) popcounts on every matrix built here; its
second, for Sylvester-type matrices of order 2^k, never runs on them, since
no family order is a power of two.  Only a matrix that fails both gets the
O(n^2) row-pair scan, split over the usable CPUs.
"""

from __future__ import annotations

from math import isqrt

from . import character_sums as cs
from . import intersection_sets as isets
from .character_sums import FAMILIES
from .errors import BadEll, InputError, NotHadamard, VerifyError
from .finite_field import MAX_FIELD_SIZE, FieldContext, prime_power
from .matrix import SignMatrix, _excess_report, hadamard_violation


# ---------------------------------------------------------------------------
# base constructions

def construct_q3(ctx: FieldContext) -> SignMatrix:
    """Order q+1 Hadamard matrix bordering the quadratic-residue matrix,
    q = 3 mod 4; rows/cols after the first follow the canonical field order."""
    if ctx.q % 4 != 3:
        raise InputError(f"q = {ctx.q} is not 3 mod 4")
    # first row: -1 then all ones; row x has -1 at the points x + (nonsquares)
    rows = [1] + [m << 1 for m in isets.class_translates(ctx, 1)]
    return SignMatrix(ctx.q + 1, rows)


def construct_q1(ctx: FieldContext, variant: str = "plain") -> SignMatrix:
    """Order 2q+2 symmetric Hadamard matrix from the doubled quadratic-residue
    matrix, q = 1 mod 4; 'negated2' negates the second row and column."""
    if ctx.q % 4 != 1:
        raise InputError(f"q = {ctx.q} is not 1 mod 4")
    if variant not in ("plain", "negated2"):
        raise InputError(f"unknown variant {variant!r}")
    q = ctx.q
    n = 2 * q + 2
    # sign-mask rows of M1 = M+I, M2 = M-I, M3 = -M1 (bit set = entry -1),
    # in the canonical field order; row x of M1 is -1 at the points
    # x + (nonsquares)
    full = (1 << q) - 1
    m1 = isets.class_translates(ctx, 1)
    m2 = [m | (1 << px) for px, m in enumerate(m1)]
    m3 = [full ^ m for m in m1]
    rows = [1 << 1]  # (1, -1, 1_q, 1_q)
    rows.append(0b11 | (full << (2 + q)))  # (-1, -1, 1_q, -1_q)
    rows.extend((a << 2) | (b << (2 + q)) for a, b in zip(m1, m2))
    rows.extend((1 << 1) | (b << 2) | (c << (2 + q)) for b, c in zip(m2, m3))
    h = SignMatrix(n, rows)
    return apply_signing(h, 0b10, 0b10) if variant == "negated2" else h


def apply_signing(h: SignMatrix, row_mask: int, col_mask: int) -> SignMatrix:
    """H with row i negated where bit i of row_mask is set and column j
    negated where bit j of col_mask is set."""
    n = h.n
    if row_mask >> n or col_mask >> n:
        raise InputError(f"sign masks must have no bit at position {n} or above")
    full = (1 << n) - 1
    rows = [r ^ col_mask ^ (full if row_mask >> i & 1 else 0) for i, r in enumerate(h.rows)]
    return SignMatrix(n, rows)


# ---------------------------------------------------------------------------
# max-excess transforms

# the largest q whose GF(q^2) build_field accepts
MAX_Q = isqrt(MAX_FIELD_SIZE)


def instances():
    """(family, m, q) for every instance of the paper's theorem under the
    field cap, family by family in the order of FAMILIES, m ascending: each
    m >= 1 (odd for a family that needs odd m) whose q = family_q(m) is a
    prime power no larger than MAX_Q."""
    for family, fam in FAMILIES.items():
        m = 1
        while (q := cs.family_q(m, family)) <= MAX_Q:
            if m % 2 or not fam.odd_m:
                try:
                    prime_power(q)
                except InputError:
                    pass
                else:
                    yield family, m, q
            m += 1


def base_matrix(family: str, base: FieldContext) -> SignMatrix:
    """The quadratic-residue Hadamard matrix that a family's transform signs:
    construct_q3, or construct_q1 in the variant of the family's row."""
    variant = FAMILIES[family].variant
    return construct_q3(base) if variant is None else construct_q1(base, variant)


def _require_family(ext: FieldContext, family: str) -> int:
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}")
    return cs.family_m(ext._require_subfield().q, family)


def transform(ext: FieldContext, family: str, ell: int | None = None, partition=None):
    """Maximum-excess signing of a family's base matrix (built by
    base_matrix once ell is checked): negate the columns of the D sets, then
    every row past the border whose sum is not positive.
    Returns the signed matrix, its excess report and the base matrix.  The
    paper's block designs prove that the signed rows take the promised sums;
    transform checks the sums themselves, after the Hadamard check.

    ell, the exponent of D_{ell,H}, fixes every other parameter (None: the
    smallest admissible one); one that is not admissible raises BadEll.

    - q3, q = 4m^2+4m+3: order q+1, row sums {2m-2, 2m+2}.
    - q1, q = 2m^2+2m+1: order 2q+2, row sums {2m-2, 2m+2} for odd m and
      {2m, 2m+4} for even m.
    - regular, q = 2m^2-1 with m odd: order 4m^2, every row sum 2m, via the
      verified four-class partition of GF(q^2) given as partition, which the
      parameter search checks (InputError when it is missing).
    """
    m = _require_family(ext, family)
    fam = FAMILIES[family]
    q = ext.subfield.q
    if ell is None:
        params = isets.find_params(ext, family, partition)
    elif not 0 < ell < q * q - 1:  # before admissible_at, which checks the partition
        raise BadEll(f"ell = {ell} lies outside 1 .. q^2 - 2 = {q * q - 2}")
    elif (params := isets.admissible_at(ext, family, partition, ell)) is None:
        raise BadEll(f"ell = {ell} is not admissible for the {family} family")
    if fam.partition:
        dsets = isets.scheme_dsets(ext, partition, params.ell)
    else:
        dsets = tuple(isets.build_dlh(ext, params.ell, fam.sign_order, hs) for hs in isets.h_sets(params))
    promised, row_sums = fam.promised(m)
    sizes = tuple(d.bit_count() for d in dsets)
    if sizes != promised:
        raise VerifyError(f"{family}: D-set sizes {sizes} break the promised sizes {promised}")
    base = base_matrix(family, ext.subfield)
    n = base.n  # the D sets index the last len(dsets) blocks of q columns
    col_mask = sum(d << k * q for k, d in enumerate(dsets)) << n - len(dsets) * q
    sums = [n - 2 * (r ^ col_mask).bit_count() for r in base.rows]
    row_mask = sum(1 << i for i in range(fam.border, n) if sums[i] <= 0)
    signed = apply_signing(base, row_mask, col_mask)
    bad = hadamard_violation(signed)
    if bad is not None:
        raise NotHadamard(bad)
    observed = {abs(s) for s in sums}
    if not observed <= set(row_sums):
        raise VerifyError(f"{family}: row sums {sorted(observed)} break the promised set {sorted(row_sums)}")
    return signed, _excess_report(signed), base
