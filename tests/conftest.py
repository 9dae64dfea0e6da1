"""Shared test helpers.

No unseeded RNG: tests that need "random-looking" elements draw them from
the fixed counter sequence below or from a random.Random with a fixed seed,
so every run is byte-for-byte identical.
"""

import itertools
from pathlib import Path

import pytest

from qrhadamard.finite_field import ZERO

# the partition files that ship with the package, schemes/m{m}.scheme
SCHEMES_DIR = Path(__file__).resolve().parent.parent / "schemes"


def canonical_index(a: int) -> int:
    """idx(a), the point numbering of the D sets: 0 for 0, k + 1 for omega^k."""
    return 0 if a == ZERO else a + 1


def entry(h, i: int, j: int) -> int:
    """Entry (i, j) of a SignMatrix: -1 where bit j of row i is set, else 1."""
    return -1 if h.rows[i] >> j & 1 else 1


def excess_and_bound(h):
    """The ExcessReport of a Hadamard SignMatrix, after the one Hadamard
    check; NotHadamard names the first bad row pair."""
    from qrhadamard.errors import NotHadamard
    from qrhadamard.matrix import _excess_report, hadamard_violation

    bad = hadamard_violation(h)
    if bad is not None:
        raise NotHadamard(bad)
    return _excess_report(h)


def shipped_partition(m: int):
    """The regular family's partition for m, read from its shipped file."""
    from qrhadamard.association_schemes import parse_partition

    return parse_partition((SCHEMES_DIR / f"m{m}.scheme").read_text())


def reference_params(ext, family: str, partition=None):
    """Oracle: the admissible ParamChoices of a family in ascending ell, by
    walking every ell in 1 .. q^2 - 2 through the family's congruence, one
    loop per sign order."""
    from functools import lru_cache

    from qrhadamard import character_sums as cs
    from qrhadamard.association_schemes import require_scheme
    from qrhadamard.intersection_sets import ParamChoice

    q, n = ext.subfield.q, ext.order

    @lru_cache(maxsize=None)
    def gap(r):
        return ext.sub((q - 1) * r, ext.one)

    def t_of(ell):
        """log(omega^(q ell) - omega^ell) for ell not divisible by q+1."""
        return (ell + gap(ell % (q + 1))) % n

    order = cs.FAMILIES[family].sign_order
    m = cs.family_m(q, family)
    if order is not None:
        eps, delta = cs.gauss_signs(ext, family)
    if order == 8:
        t_target = (4 + 2 * delta) % 8
        h_of = {0: 0, 6: 1, 4: 2, 2: 3}
        for ell in range(1, n):
            if ell % (q + 1) == 0 or ell % 2 == 0:
                continue
            if t_of(ell) % 8 != t_target:
                continue
            hp = h_of[(2 - 5 * eps * delta - ell) % 8]
            yield ParamChoice(family, ell, m, h=hp, epsilon=eps, delta=delta)
    elif order == 4:
        for ell in range(1, n):
            if ell % (q + 1) == 0:
                continue
            h = (ell - 3) % 4
            if t_of(ell) % 4 != (delta * (1 + 2 * h)) % 4:
                continue
            yield ParamChoice(family, ell, m, h=h, epsilon=eps, delta=delta)
    else:  # the scheme partition's classes and tau
        tau = require_scheme(ext, partition).tau
        e = partition.e
        four_m2 = 4 * m * m
        t_target = (tau * m * m) % four_m2
        classes_24 = set(partition.h_lists[1]) | set(partition.h_lists[3])
        for ell in range(1, n):
            if ell % (q + 1) == 0:
                continue
            if ell % e not in classes_24:
                continue
            if t_of(ell) % four_m2 != t_target:
                continue
            yield ParamChoice(family, ell, m, tau=tau)


def tiled(period_rows, q: int):
    """The admissible ParamChoices of 1 .. q^2 - 2 in ascending ell, from
    those of one period P = 2(q+1): each ell + kP with the same other
    fields."""
    period = 2 * (q + 1)
    return [c._replace(ell=c.ell + shift) for shift in range(0, q * q - 1, period) for c in period_rows]


class NaiveField:
    """Oracle: GF(p^f) as coefficient tuples (constant first) reduced by the
    modulus, with omega the lex-least element of order q-1 by brute force."""

    def __init__(self, p, modulus):
        self.p, self.f, self.modulus = p, len(modulus) - 1, modulus
        one = (1,) + (0,) * (self.f - 1)
        for omega in itertools.product(range(p), repeat=self.f):
            exp, x = [one], omega
            while any(x) and x != one:
                exp.append(x)
                x = self.mul(x, omega)
            if len(exp) == p**self.f - 1:
                break
        self.exp = exp
        self.log = {v: k for k, v in enumerate(exp)}
        self.log[(0,) * self.f] = ZERO

    def mul(self, a, b):
        f, prod = self.f, [0] * (2 * self.f - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for i in range(2 * f - 2, f - 1, -1):
            for j in range(f):
                prod[i - f + j] -= prod[i] * self.modulus[j]
        return tuple(c % self.p for c in prod[:f])

    def vec(self, x):
        return (0,) * self.f if x == ZERO else self.exp[x]

    def combine(self, terms):
        """Log of sum(c * vec(x)) over the (c, x) pairs in terms."""
        acc = [0] * self.f
        for c, x in terms:
            acc = [(a + c * v) % self.p for a, v in zip(acc, self.vec(x))]
        return self.log[tuple(acc)]

    def trace(self, k):
        """Tr(omega^k) = sum of omega^(k p^i) over i < f, an element of GF(p)."""
        n = len(self.exp)
        tr = [sum(col) % self.p for col in zip(*(self.exp[k * self.p**i % n] for i in range(self.f)))]
        assert not any(tr[1:]), "trace landed outside the prime field"
        return tr[0]


def sylvester(order: int):
    """The Sylvester Hadamard matrix of a power-of-two order, [[H, H], [H, -H]]."""
    from qrhadamard.matrix import SignMatrix

    rows, n = [0], 1
    while n < order:
        rows = [r | r << n for r in rows] + [r | (r ^ (1 << n) - 1) << n for r in rows]
        n *= 2
    return SignMatrix(n, rows)


def kronecker(a, b):
    """The Kronecker product of two sign matrices: entry (i b.n + k, j b.n + l)
    is a[i][j] b[k][l]."""
    from qrhadamard.matrix import SignMatrix

    full = (1 << b.n) - 1
    repeat = sum(1 << j * b.n for j in range(a.n))  # rb * repeat: rb in every block
    signs = [sum(full << j * b.n for j in range(a.n) if ra >> j & 1) for ra in a.rows]
    return SignMatrix(a.n * b.n, [sign ^ rb * repeat for sign in signs for rb in b.rows])


def transpose(h):
    """The transpose of a sign matrix: bit j of row i becomes bit i of row j."""
    from qrhadamard.matrix import SignMatrix

    cols = [0] * h.n
    for i, r in enumerate(h.rows):
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= 1 << i
            r ^= low
    return SignMatrix(h.n, cols)


def scrambled(h, rng):
    """A Hadamard-equivalent copy of h: its rows and columns permuted and
    negated at random by rng, a random.Random."""
    from operator import itemgetter

    from qrhadamard.matrix import SignMatrix

    n, full = h.n, (1 << h.n) - 1
    spec, cols = f"0{n}b", itemgetter(*rng.sample(range(n), n))
    negated = rng.getrandbits(n)
    rows = [r ^ negated ^ (full if rng.getrandbits(1) else 0) for r in rng.sample(h.rows, n)]
    return SignMatrix(n, [int("".join(cols(format(r, spec))), 2) for r in rows])


def paley_sylvester(order: int):
    """A Hadamard matrix of a power-of-two order >= 64 that is not of
    Sylvester type, so no certificate proves it and hadamard_violation scans
    it: Paley I of order 32 (q = 31), Kronecker times Sylvester's."""
    from qrhadamard.finite_field import build_field
    from qrhadamard.hadamard import construct_q3

    return kronecker(construct_q3(build_field(31)), sylvester(order // 32))


def counted_scans(monkeypatch):
    """The orders of the full orthogonality scans run from now on, in this
    process (matrix._scan, which a certified matrix never reaches)."""
    from qrhadamard import matrix

    scans, real = [], matrix._scan
    monkeypatch.setattr(matrix, "_scan", lambda *args: scans.append(args[1]) or real(*args))
    return scans


# Matrix texts and whether from_text accepts them: the accepted ones hold
# the Hadamard matrix [[1, 1], [1, -1]].  Shared by the parser and CLI tests.
PARSE_CASES = [
    ("2\n++\n+-\n", True),
    ("2\r\n++\r\n+-\r\n", True),  # CRLF line ends
    ("\n2\n\n++\n\n\n+-\n\n", True),  # blank lines
    (" 2 \n\t++  \n  +-\t\n", True),  # surrounding whitespace
    ("2\n++\n \t \n+-\n", True),  # a whitespace-only line is blank
    ("2\n+_\n-+\n", False),
    ("3\n+ -\n+++\n+++\n", False),  # inner space
    ("3\n+\t-\n+++\n+++\n", False),  # inner tab
    ("3\n+\u00a0-\n+++\n+++\n", False),  # inner no-break space
    ("2\n\uff0b-\n-+\n", False),  # fullwidth plus
    ("2\n+\u2212\n-+\n", False),  # minus sign
    ("2\n+\u00e9\n-+\n", False),
    ("2\n+\n-+\n", False),  # a row too short
    ("2\n+-+\n-+\n", False),  # a row too long
    ("2\n+-\n", False),  # a row missing
    ("2\n+-\n-+\n++\n", False),  # a row too many
    ("2\n+-\n-+\r-+\n", False),  # a bare CR splits a line too
    ("2\n+-\n-\x0b+\n", False),
]


def counter_indices(count: int, modulus: int, salt: int = 0):
    """Deterministic pseudo-spread sequence: k -> (7919*k + 104729*salt + 13) mod modulus."""
    return [(7919 * k + 104729 * salt + 13) % modulus for k in range(count)]


@pytest.fixture(scope="session")
def tower11():
    from qrhadamard.finite_field import quadratic_tower

    return quadratic_tower(11)


@pytest.fixture(scope="session")
def tower17():
    from qrhadamard.finite_field import quadratic_tower

    return quadratic_tower(17)


@pytest.fixture(scope="session")
def tower25():
    from qrhadamard.finite_field import quadratic_tower

    return quadratic_tower(25)
