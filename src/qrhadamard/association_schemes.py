"""Four-class translation association schemes on GF(q^2) from cyclotomic
partitions: structural conditions, the scheme test, the first eigenmatrix
against the prescribed eigenvalue table, and the partition search.

A partition is given by four index lists H_1..H_4 over [0, e); X_i is the
union of the cyclotomic classes C_j^(e, q^2) with j in H_i.  Index lists are
relative to this package's canonical primitive element, so files and
reported partitions are reproducible.

Every decision is exact.  e | 4m^2 = 2(q + 1), so each Gauss period is
(A + B g)/2 with g = G_q(eta), an integer when q is a square and +sqrt(q)
otherwise (character_sums.gauss_period_pairs).  Eigenvalues are held
doubled, as int pairs (a, b) standing for a + b sqrt(q), so they compare
exactly; they decide the scheme, tau and table 1.  Float Gauss periods only
render the eigenmatrix that scheme --verify prints (eigenmatrix_rows).
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from . import character_sums as cs
# the exceptions this layer raises, importable from here too
from .errors import BadForm, BudgetExceeded, ParseError, SchemeError, SchemeInvalid
from .finite_field import FieldContext

DEFAULT_SEARCH_BUDGET = 1 << 24


class SchemePartition(namedtuple("SchemePartition", "q m e h_lists")):
    """q, m, e and the index lists H_1..H_4 (sorted tuples), which must
    partition [0, e); checked on every construction, _replace included."""

    __slots__ = ()

    def __new__(cls, q, m, e, h_lists):
        if len(h_lists) != 4:
            raise BadForm("expected exactly four index lists")
        seen: set[int] = set()
        for hs in h_lists:
            for j in hs:
                if not 0 <= j < e or j in seen:
                    raise BadForm("index lists must partition [0, e)")
                seen.add(j)
        if len(seen) != e:
            raise BadForm("index lists must partition [0, e)")
        return super().__new__(cls, q, m, e, h_lists)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def residue_class(self) -> tuple[int, ...]:
        """class index (1..4) of each residue mod e."""
        cls = [0] * self.e
        for i, hs in enumerate(self.h_lists, start=1):
            for j in hs:
                cls[j] = i
        return tuple(cls)


class SchemeReport(
    namedtuple(
        "SchemeReport",
        "is_scheme symmetric class_sizes table1_match tau table1_misses",
    )
):
    """What verify_scheme found, exactly: tau the matching tau or None, and
    table1_misses a (tau, miss) pair for tau = 1, -1, miss being the
    (row, col, got, expected) of the first cell that misses table 1, or None."""

    __slots__ = ()


def normalized_partition(q: int, m: int, e: int, h_lists) -> SchemePartition:
    return SchemePartition(q, m, e, tuple(tuple(sorted(set(hs))) for hs in h_lists))


def partition_text(part: SchemePartition) -> str:
    lines = [f"{part.q} {part.m} {part.e}"]
    for hs in part.h_lists:
        lines.append(" ".join(str(j) for j in hs))
    return "\n".join(lines) + "\n"


def _plain_int(token: str) -> int:
    """int(token), refusing the "_" and the non-ASCII digits int() also reads."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"invalid literal for int() with base 10: {token!r}")
    return int(token)


def parse_partition(text: str) -> SchemePartition:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 5:
        raise ParseError("partition file needs a header line and four index lines")
    try:
        q, m, e = map(_plain_int, lines[0].split())
        h_lists = tuple(tuple(map(_plain_int, ln.split())) for ln in lines[1:])
    except ValueError as exc:
        raise ParseError(f"malformed partition file: {exc}") from exc
    try:
        return normalized_partition(q, m, e, h_lists)
    except BadForm as exc:
        raise ParseError(str(exc)) from exc


def _check_form(ext: FieldContext, q: int, m: int, e: int, search: bool = False) -> None:
    """Refuse a (q, m, e) that is not of the paper's form: q and m on the
    regular FAMILIES row, e | q^2-1 and e | 4m^2.  A search also needs even
    e, and names all its conditions on e in one message."""
    if ext.subfield is None or ext.subfield.q != q:
        raise BadForm(f"context is not the quadratic tower over GF({q})")
    if m < 1 or cs.family_q(m, "regular") != q:
        raise BadForm(f"q = {q} is not of the regular form at m = {m}")
    if cs.FAMILIES["regular"].odd_m and m % 2 == 0:
        raise BadForm("the regular family needs odd m")
    if search and (e < 4 or e % 2 or ext.order % e or (4 * m * m) % e):
        raise BadForm(f"e = {e} must be even and divide both 4m^2 and q^2-1")
    if e < 4 or ext.order % e:
        raise BadForm(f"e = {e} does not divide q^2-1")
    if (4 * m * m) % e:
        raise BadForm("e must divide 4m^2")


def _shifted(part: SchemePartition) -> bool:
    """The shift condition X_1 = w^(2m^2) X_3, X_2 = w^(2m^2) X_4, on a
    partition that _check_form has passed.  Element w^k lies in the class
    of k mod e, and e | q^2-1 (checked by _check_form), so
    (k + s) mod (q^2-1) mod e = (k mod e + s) mod e: checking residues
    decides the same conditions as checking all q^2-1 elements.

    _check_form also enforces e | 4m^2, so every X_i is a union of index-4m^2
    cosets, and 2m^2 mod e is 0 or e/2.  If it is 0, the shift test fails at
    r = 0.  If it is e/2, the test at r >= e/2 is the test at r - e/2 read
    through the involution want.  So the residues r < e/2 decide it."""
    cls = part.residue_class()
    e = part.e
    shift = 2 * part.m * part.m
    want = {1: 3, 2: 4, 3: 1, 4: 2}
    for r in range(e // 2):
        if cls[(r + shift) % e] != want[cls[r]]:
            return False
    return True


def table1_values(m: int, g: tuple[int, int]) -> list[list[tuple[int, int]]]:
    """Expected first-eigenmatrix cells, doubled: g = G_q(eta) as
    character_sums.quadratic_gauss_sum gives it, rows indexed by the dual
    classes Y_0..Y_4, columns X_0..X_4.  Rows Y_3 and Y_4 are Y_1 and Y_2
    with g negated."""
    mm, (g0, g1) = m * m, g
    k = 2 * m * (mm - 1)

    def row(sign, cells):  # cells (A, B) of X_1..X_4, each standing for A + sign B g
        return [(2, 0)] + [(a + sign * b * g0, sign * b * g1) for a, b in cells]

    y1 = ((mm + m - 1, -m), (-mm - m, -m - 1), (mm + m - 1, m), (-mm - m, m + 1))
    y2 = ((m - mm, 1 - m), (mm - m - 1, m), (m - mm, m - 1), (mm - m - 1, -m))
    sizes = [(2, 0)] + [(k * (m + s), 0) for s in (-1, 1, -1, 1)]
    return [sizes, row(1, y1), row(1, y2), row(-1, y1), row(-1, y2)]


def cell_value(q: int, cell: tuple[int, int]) -> float:
    """The real number (a + b sqrt(q))/2 that the doubled cell (a, b) stands for."""
    return (cell[0] + cell[1] * math.sqrt(q)) / 2


def _cell(row, hs) -> tuple[int, int]:
    """The doubled sum of row[j] over j in hs."""
    a = b = 0
    for j in hs:
        x, y = row[j]
        a, b = a + x, b + y
    return a, b


def _dual_residues(part: SchemePartition, q: int, tau: int) -> list[tuple[int, ...]]:
    """Residue lists of Y_i = w^(-m^2 tau) X_i^q for i = 1..4."""
    dual = _dual_map(q, part.m, part.e, tau)
    return [tuple(sorted({dual[j] for j in hs})) for hs in part.h_lists]


def _dual_map(q: int, m: int, e: int, tau: int) -> tuple[int, ...]:
    """dual[j] = j q - m^2 tau mod e: where Y_i = w^(-m^2 tau) X_i^q puts residue j of X_i."""
    return tuple((j * q - m * m * tau) % e for j in range(e))


def _table1_inputs(ext: FieldContext, e: int, m: int):
    """(rows, table 1), doubled, for the class modulus e, with rows[r][j]
    the Gauss period of class j + r: psi(a X_c) is the sum of rows[r][j]
    over j in H_c for every a in the class of residue r."""
    g0, g1 = g = cs.quadratic_gauss_sum(ext.subfield)
    periods = [(a + b * g0, b * g1) for a, b in cs.gauss_period_pairs(ext, e)]
    rows = [periods[r:] + periods[:r] for r in range(e)]
    return rows, table1_values(m, g)


def _table1_miss(h_lists, rows, expected, dual, classes=(1, 2, 3, 4)):
    """(i, c, got, want) of the first cell of the dual rows Y_i that misses
    table 1 in a column X_c, i and c in classes, or None.  psi(a X_c)
    depends on a only through its residue mod e and every residue of every
    Y_i is checked, so a None over all four classes is exhaustive over
    GF(q^2)*.  Column 0 is 1 by definition.  The cells of rows and columns
    in classes read only those classes' index lists, so the search can
    check them before the other lists are chosen."""
    for i in classes:
        want = expected[i]
        for r in sorted({dual[j] for j in h_lists[i - 1]}):
            row = rows[r]
            for c in classes:
                got = _cell(row, h_lists[c - 1])
                if got != want[c]:
                    return i, c, got, want[c]
    return None


def _class_sizes(ext: FieldContext, part: SchemePartition) -> tuple[int, ...]:
    valency = ext.order // part.e
    return (1,) + tuple(len(hs) * valency for hs in part.h_lists)


def eigenmatrix_vs_table1(part: SchemePartition, sizes, rows, expected):
    """(tau, table-1 misses) of a partition with class sizes sizes, rows and
    table 1 as _table1_inputs gives them: tau is the first tau whose miss is
    None, or None.  A tau's miss is the first class-size cell (row 0) that
    misses table 1, else the first cell of the dual rows (see _table1_miss).
    benchmark/tracer.py times the table-1 check under this name."""
    q, m, e = part.q, part.m, part.e
    size_miss = next(
        ((0, c, (2 * sizes[c], 0), expected[0][c]) for c in range(5) if (2 * sizes[c], 0) != expected[0][c]), None
    )
    misses = tuple(
        (tau, size_miss or _table1_miss(part.h_lists, rows, expected, _dual_map(q, m, e, tau)))
        for tau in (1, -1)
    )
    return next((tau for tau, miss in misses if miss is None), None), misses


def verify_scheme(ext: FieldContext, part: SchemePartition) -> SchemeReport:
    """The scheme test plus the eigenvalue-table check, both exact.

    The partition is a four-class scheme when it has the shift structure,
    each X_i is nonempty and closed under negation, and the characters
    psi_a, a != 0, take exactly four distinct rows (psi_a(X_1), ...,
    psi_a(X_4)): the Bannai-Muzychuk fusion criterion (E. Bannai,
    "Subschemes of some association schemes", J. Algebra 144, 1991).  The
    row depends on a only through its residue mod e, so e rows decide it;
    the same rows decide table 1.
    """
    _check_form(ext, part.q, part.m, part.e)
    cls, e = part.residue_class(), part.e
    symmetric = all(cls[(r + ext.half) % e] == cls[r] for r in range(e))
    rows, expected = _table1_inputs(ext, e, part.m)
    dual_rows = {tuple(_cell(row, hs) for hs in part.h_lists) for row in rows}
    sizes = _class_sizes(ext, part)
    tau, misses = eigenmatrix_vs_table1(part, sizes, rows, expected)
    return SchemeReport(
        is_scheme=_shifted(part) and symmetric and all(part.h_lists) and len(dual_rows) == 4,
        symmetric=symmetric,
        class_sizes=sizes,
        table1_match=tau is not None,
        tau=tau,
        table1_misses=misses,
    )


def require_scheme(ext: FieldContext, part: SchemePartition) -> SchemeReport:
    """The report of a partition that is a scheme matching table 1, the
    promise the regular family rests on; SchemeInvalid otherwise."""
    report = verify_scheme(ext, part)
    if not (report.is_scheme and report.table1_match):
        raise SchemeInvalid("partition fails scheme or eigenvalue-table verification")
    return report


# class of residue r + e/2 given the class of r (the shift pairs X_1/X_3 and X_2/X_4)
_PAIRED = (0, 3, 4, 1, 2)


def _class_lists(cls) -> tuple[list[int], ...]:
    lists: tuple[list[int], ...] = ([], [], [], [])
    for j, c in enumerate(cls):
        lists[c - 1].append(j)
    return lists


def _table1_survivors(e: int, size1: int, rows, expected, duals):
    """Class vectors (the class 1..4 of each residue mod e) of the shape-valid
    assignments with 0 in H_1 that pass table 1 for some dual map.

    H_1 is chosen first, which fixes H_3 = H_1 + e/2; the cells of rows Y_1,
    Y_3 in columns X_1, X_3 need only those two lists, and a dual map that
    misses one of them misses the full check too.  Only the maps left are
    tried on each completion by H_2 and H_4 = H_2 + e/2.
    """
    half = e // 2
    for pairs in itertools.combinations(range(1, half), size1 - 1):
        others = [r for r in range(1, half) if r not in pairs]
        for flips in itertools.product((0, half), repeat=size1 - 1):
            h1 = sorted([0] + [r + f for r, f in zip(pairs, flips)])
            h3 = sorted((r + half) % e for r in h1)
            partial = (h1, (), h3, ())
            live = [dual for dual in duals if _table1_miss(partial, rows, expected, dual, (1, 3)) is None]
            if not live:
                continue
            base = [0] * e
            for r in h1:
                base[r], base[(r + half) % e] = 1, 3
            for rest in itertools.product((2, 4), repeat=len(others)):
                for r, c in zip(others, rest):
                    base[r], base[r + half] = c, _PAIRED[c]
                cls = tuple(base)
                h_lists = _class_lists(cls)
                if any(_table1_miss(h_lists, rows, expected, dual) is None for dual in live):
                    yield cls


def scheme_search(ext: FieldContext, e: int, budget: int = DEFAULT_SEARCH_BUDGET) -> list[SchemePartition]:
    """Every partition of GF(q^2)* into four unions of e-th cyclotomic classes
    with the shift symmetry X_3 = w^(2m^2) X_1, X_4 = w^(2m^2) X_2 that is a
    scheme matching table 1, sorted by index lists.

    The class vectors with 0 in H_1 are put through the table-1 filter class
    by class (see _table1_survivors): a choice of H_1 whose X_1/X_3 cells
    miss for both taus is dropped before any H_2 is tried.

    Multiplying by w^k maps C_j to C_(j+k).  It is an automorphism of
    (GF(q^2), +), so it keeps the shape, the intersection numbers and the
    eigen rows (R'(r) = R(r + k), with tau flipped for odd k), and the set of
    partitions found is closed under rotation.  So each survivor's rotations
    are expanded, and every member passes verify_scheme, table-1 check
    included, on its own before it is reported.

    The budget caps the number of class vectors enumerated: the shape-valid
    ones with 0 in H_1, C(e/2 - 1, |H_1| - 1) * 2^(e/2 - 1) of them.  A
    search over budget raises BudgetExceeded before any work.
    """
    if ext.subfield is None:
        raise BadForm("search needs the quadratic tower")
    q = ext.subfield.q
    m = cs.family_m(q, "regular")
    _check_form(ext, q, m, e, search=True)
    if (2 * m * m) % e != e // 2:
        return []  # the shift collapses; condition (1) cannot hold disjointly
    if e * (m - 1) % (4 * m):
        return []
    size1 = e * (m - 1) // (4 * m)
    count = math.comb(e // 2 - 1, size1 - 1) * 2 ** (e // 2 - 1)
    if count > budget:
        raise BudgetExceeded(f"search needs {count} candidates, over the budget of {budget}")
    rows, expected = _table1_inputs(ext, e, m)
    duals = [_dual_map(q, m, e, tau) for tau in (1, -1)]
    members = set()
    for cls in _table1_survivors(e, size1, rows, expected, duals):
        doubled = cls + cls
        members.update(doubled[k:k + e] for k in range(e))
    found = []
    for cls in members:
        part = normalized_partition(q, m, e, _class_lists(cls))
        report = verify_scheme(ext, part)  # includes the table-1 check, for both taus
        if report.is_scheme and report.table1_match:
            found.append(part)
    return sorted(found, key=lambda p: p.h_lists)


def eigenmatrix_rows(ext: FieldContext, part: SchemePartition, tau) -> tuple[tuple[complex, ...], ...]:
    """The first eigenmatrix that scheme --verify prints, rows indexed by the
    dual classes: row Y_i is psi(a X_c) for a in the least residue of Y_i
    under tau (1 when None), summed from the float Gauss periods.  An empty
    class gets a zero row.  Nothing is decided from these floats."""
    periods = cs.gauss_periods(ext, part.e)
    eigen = [[complex(sz) for sz in _class_sizes(ext, part)]]
    for ylist in _dual_residues(part, part.q, tau or 1):
        if not ylist:
            eigen.append([0j] * 5)
            continue
        row = periods[ylist[0]:] + periods[:ylist[0]]
        eigen.append([1 + 0j] + [sum(map(row.__getitem__, hc)) for hc in part.h_lists])
    return tuple(tuple(row) for row in eigen)


def scheme_report_json(ext: FieldContext, part: SchemePartition, report: SchemeReport) -> dict:
    """What scheme --verify prints: the report and the float eigenmatrix."""
    return {
        "is_scheme": report.is_scheme,
        "tau": report.tau,
        "class_sizes": list(report.class_sizes),
        "eigenmatrix": [[[z.real, z.imag] for z in row] for row in eigenmatrix_rows(ext, part, report.tau)],
        "table1_match": report.table1_match,
    }
