"""Exact table-driven arithmetic in small finite fields GF(p^f).

The representation is canonical: the modulus is the lexicographically least
monic irreducible polynomial of degree f over GF(p) (coefficients listed
constant term first), and the primitive element omega is the one with the
lexicographically least coefficient vector among elements of multiplicative
order q-1.  Nonzero field elements are plain ints, namely their discrete log
to base omega; the zero element is the sentinel ZERO.  Fixing both choices
makes every downstream cyclotomic class, point set and matrix labeling
reproducible bit for bit.

Both kinds of field compute in coordinates (Lidl and Niederreiter, *Finite
Fields*, ch. 2).  An odd-degree field writes omega^k in the basis 1, x, ...,
x^(f-1) over GF(p), x a root of the modulus.  Multiplying by omega is a fixed
f x f map over GF(p), so one walk over k fills three flat ``array('i')``
tables, the last of them its Zech logarithms (K. Huber, "Some comments on
Zech's logarithms", IEEE Trans. Inf. Theory 36, 1990):

- ``trace_table[k] = Tr(omega^k)``, an int in [0, p): Tr is GF(p)-linear,
  so it is the coordinates of omega^k weighted by Tr(x^j), j < f;
- ``log_table[w]``, the log of the element whose coordinates are the base-p
  digits of w, constant term lowest, so the constant c has index c;
- ``zech_table[k] = Z(k) = log(1 + omega^k)``, where the index of
  1 + omega^k is that of omega^k with digit 0 raised by one mod p; so
  ``add(a, b) = a + Z((b - a) mod (q-1))`` is one array read.

An even-degree field GF(q'^2) builds no table of q'^2 entries: its
coordinates are over its index-2 subfield GF(q').  omega^k = c omega^r with
r = k mod (q'+1) and c = N(omega)^(k div (q'+1)) in GF(q'), and
omega^r = a_r + b_r omega for r <= q', filled by the recurrence
omega^2 = Tr(omega) omega - N(omega).  Back from coordinates, a + b omega
with b != 0 is (b / b_r) omega^r for the one r with a_r / b_r = a / b, read
from a table of q' entries.  So a Zech logarithm costs one Zech logarithm of
GF(q') and a few log additions.  The absolute trace goes through the
subfield too: Tr(omega^k) = Tr'(c Tr_{q/q'}(omega^r)), and the q' + 1
relative traces Tr_{q/q'}(omega^r) = 2 a_r + b_r Tr_{q/q'}(omega) are kept
as logs in GF(q'), where the Gauss-sum signs read them.  Such a field has no
log, trace or Zech table and holds O(q') ints; ``trace(k)`` answers for both
kinds of field.

Contexts do not change after construction, and all operations are pure.
"""

from __future__ import annotations

import itertools
from array import array
from collections import namedtuple
from collections.abc import Callable
from functools import lru_cache
from math import gcd, isqrt
from operator import mul

from .errors import DivisionByZero, FieldError, NoSubfield, NotPrime, TooLarge

ZERO = -1  # rep of the zero element; logs are >= 0
_NOT_PRIMITIVE = "omega repeats an element; it is not primitive"

# Table memory per element of an odd-degree field, the only kind that builds
# tables: the log, trace and Zech tables, 4 bytes each, and no lookup table
# while the walk fills them (the modulus and omega searches hold no pool of q
# ints).  The budget still counts 16 bytes, so the cap stays 2^24 elements.
# A tower GF(q'^2) holds four tables of about q' entries; on it the cap only
# bounds q' <= 4096, and so the matrix order.  Fields over the cap are
# refused before anything is factored or allocated.
TABLE_BYTES_PER_ELEMENT = 16
TABLE_BUDGET_BYTES = 256 << 20
MAX_FIELD_SIZE = TABLE_BUDGET_BYTES // TABLE_BYTES_PER_ELEMENT  # 2^24


def _factor(n: int) -> dict[int, int]:
    """{prime: exponent} of n by trial division, primes ascending; {} for n <= 1.

    Exact for every n; quick for the n <= MAX_FIELD_SIZE that callers pass
    (at most ~2,048 divisions, since d only runs while d^2 <= n).
    """
    fac: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        fac[n] = 1
    return fac


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over GF(p); coefficient lists, constant first.
# Only the modulus, primitive-element and minimal-polynomial setup uses it.

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _reduce(a: list[int], mod: tuple[int, ...], p: int) -> list[int]:
    """a modulo the polynomial mod over GF(p), trimmed; the list a is scratch."""
    dm = len(mod) - 1
    tail = mod[:dm]
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j, m in enumerate(tail, i - dm):
                a[j] -= c * m
    return _trim([c % p for c in a[:dm]])


def _mulmod(a: list[int], b: list[int], mod: tuple[int, ...], p: int) -> list[int]:
    if not a or not b:
        return []
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                res[j] += ai * bj
    return _reduce(res, mod, p)


def _powmod(a: list[int], k: int, mod: tuple[int, ...], p: int) -> list[int]:
    result = [1]
    a = _reduce(list(a), mod, p)
    while k:
        if k & 1:
            result = _mulmod(result, a, mod, p)
        a = _mulmod(a, a, mod, p)
        k >>= 1
    return result


def _rem(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _trim(list(a)), _trim(list(b))
    inv_lead = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = (a[-1] * inv_lead) % p
        shift = len(a) - len(b)
        for j, bj in enumerate(b):
            a[shift + j] = (a[shift + j] - c * bj) % p
        _trim(a)
    return a


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _rem(a, b, p)
    return a


def _sub_poly(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _trim([(x - y) % p for x, y in zip(a, b)])


def _trace_poly(a: list[int], mod: tuple[int, ...], p: int) -> int:
    """Tr(a) = a + a^p + ... + a^(p^(f-1)); it must land in GF(p)."""
    f = len(mod) - 1
    acc = [0] * f
    for _ in range(f):
        for j, c in enumerate(a):
            acc[j] = (acc[j] + c) % p
        a = _powmod(a, p, mod, p)
    if any(acc[1:]):
        raise AssertionError("trace landed outside the prime field")
    return acc[0]


def _solve_mod_p(columns: list[list[int]], rhs: list[int], p: int) -> list[int]:
    """x with sum_j x[j] columns[j] = rhs over GF(p); the columns are
    independent and rhs lies in their span."""
    d = len(columns)
    size = max(map(len, [*columns, rhs]))
    cols = [list(c) + [0] * (size - len(c)) for c in [*columns, rhs]]
    rows = [[c[i] for c in cols] for i in range(size)]
    for c in range(d):
        piv = next(r for r in range(c, size) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, p)
        rows[c] = [v * inv % p for v in rows[c]]
        for r in range(size):
            if r != c and rows[r][c]:
                k = rows[r][c]
                rows[r] = [(a - k * b) % p for a, b in zip(rows[r], rows[c])]
    return [row[d] for row in rows[:d]]


def _norm(vec: tuple[int, ...], mod: tuple[int, ...], p: int) -> int:
    """N(a) = a a^p ... a^(p^(f-1)) = a^((q-1)/(p-1)) in GF(p) of the element
    a with the f coefficients vec; for f = 2, a0^2 - a0 a1 c1 + a1^2 c0
    modulo x^2 + c1 x + c0."""
    f = len(mod) - 1
    if f == 2:
        a0, a1 = vec
        return (a0 * a0 - a0 * a1 * mod[1] + a1 * a1 * mod[0]) % p
    return (_powmod(list(vec), (p**f - 1) // (p - 1), mod, p) or [0])[0]


def is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Rabin test for a monic polynomial over GF(p), constant term first."""
    f = len(coeffs) - 1
    if f < 1 or coeffs[-1] != 1:
        return False
    if f == 1:
        return True
    if coeffs[0] == 0:  # root at 0
        return False
    x = [0, 1]
    t = _powmod(x, p**f, coeffs, p)
    if _sub_poly(t, x, p):
        return False
    for r in _factor(f):
        t = _powmod(x, p ** (f // r), coeffs, p)
        g = _poly_gcd(_sub_poly(t, x, p), list(coeffs), p)
        if len(g) - 1 != 0:
            return False
    return True


def _least_irreducible(p: int, f: int) -> tuple[int, ...]:
    """The least monic irreducible of degree f, constant term most significant.
    For f >= 2 a constant term 0 gives the root 0, so the scan starts at 1."""
    if f == 1:
        return (0, 1)  # x: the scan would hold all p constant terms at once
    for coeffs in itertools.product(range(1, p), *[range(p)] * (f - 1)):
        cand = coeffs + (1,)
        if is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found; invariant breach")


def _vec(a: list[int], f: int) -> tuple[int, ...]:
    """The f coefficients of a, constant first."""
    return tuple(a) + (0,) * (f - len(a))


class FieldSpec(namedtuple("FieldSpec", "p f modulus")):
    """Prime p, degree f and the canonical modulus (constant term first)."""

    __slots__ = ()

    @property
    def q(self) -> int:
        return self.p**self.f


class FieldContext:
    """GF(p^f) with Zech logarithms and, for even f, a subfield link.

    Elements are ints: a log index in [0, q-1) or ZERO.  When f is even the
    context also holds GF(p^(f/2)) together with the canonical embedding of
    it onto the Frobenius-fixed subfield, and it adds and takes traces
    through the subfield coordinates of omega^0, ..., omega^q'.
    """

    def __init__(self, spec: FieldSpec):
        p, f = spec.p, spec.f
        if not is_irreducible(spec.modulus, p):
            raise FieldError(f"modulus {spec.modulus} is not monic irreducible over GF({p})")
        self.spec = spec
        self.p = p
        self.f = f
        self.q = p**f
        self.order = self.q - 1
        self.one = 0
        self.half = self.order // 2 if p != 2 else 0
        self.subfield: FieldContext | None = None
        self._omega = self._find_primitive(spec.modulus)
        if f % 2:
            self._build_tables()
            return
        # The tower needs omega primitive: with q' = p^(f/2), N(omega) =
        # omega^(q'+1) must generate GF(q')* and the q'+1 points omega^r,
        # r <= q', must be distinct up to GF(q')* factors.  Both hold iff
        # omega^(order/r) != 1 for every prime r | order = (q'-1)(q'+1),
        # which is checked before the subfield is built.
        if any(_powmod(self._omega, self.order // r, spec.modulus, p) == [1] for r in _factor(self.order)):
            raise AssertionError(_NOT_PRIMITIVE)
        self.subfield = build_field(p, f // 2)
        self._build_tower()

    def _build_tables(self) -> None:
        p, f, q, n = self.p, self.f, self.q, self.order
        mod_poly = self.spec.modulus
        # column j of multiplication by omega: the coordinates of omega x^j
        cols, col = [], self._omega
        for _ in range(f):
            cols.append(_vec(col, f))
            col = _reduce([0, *col], mod_poly, p)
        rows = list(zip(*cols))
        traces = [_trace_poly([0] * j + [1], mod_poly, p) for j in range(f)]  # Tr(x^j)
        digits = [p**j for j in range(f)]
        log = array("i", [ZERO]) * q
        trace = array("i", [0]) * n
        zech = array("i", [0]) * n  # the index of 1 + omega^k until the loop below
        x = one = [1] + [0] * (f - 1)
        for k in range(n):
            w = sum(map(mul, x, digits))
            log[w] = k
            trace[k] = sum(map(mul, x, traces)) % p
            zech[k] = w - x[0] + (x[0] + 1) % p
            x = [sum(map(mul, x, row)) % p for row in rows]
        # n indices fill all q - 1 nonzero slots only if none repeats
        if log[0] != ZERO or log.count(ZERO) != 1:
            raise AssertionError(_NOT_PRIMITIVE)
        if x != one:
            raise AssertionError("primitive element order mismatch")
        for k in range(n):
            zech[k] = log[zech[k]]
        self.trace_table = trace
        self.log_table = log
        self.zech_table = zech
        # a Zech logarithm, and so add, is one array read here
        self._zech = zech.__getitem__

    def _build_tower(self) -> None:
        """Coordinates (a_r, b_r) over the subfield of omega^r = a_r + b_r omega
        for r <= q', q' = |subfield|, the map R from a_r / b_r back to r, and
        the relative traces Tr_{q/q'}(omega^r) = 2 a_r + b_r Tr(omega)."""
        sub, p, mod_poly = self.subfield, self.p, self.spec.modulus
        nu, t, t_inv, sub_log = _subfield_logs(self, sub)
        self._nu = nu
        self._embed_mult = nu * t
        self._project_mult = t_inv
        # omega^2 = T omega - N with T = omega + omega^q' and N = omega^(q'+1),
        # whose log in GF(q') is t_inv
        conj = _vec(_powmod(self._omega, sub.q, mod_poly, p), self.f)
        trace = sub_log(tuple((x + y) % p for x, y in zip(conj, _vec(self._omega, self.f))))
        minus_norm = sub.neg(t_inv)
        two = sub.from_int(2)
        coords_a = array("i", [ZERO]) * (sub.q + 1)
        coords_b = array("i", [ZERO]) * (sub.q + 1)
        rel_traces = array("i", [ZERO]) * (sub.q + 1)
        back = array("i", [0]) * sub.q
        a, b = sub.one, ZERO
        for r in range(sub.q + 1):
            coords_a[r], coords_b[r] = a, b
            tb = sub.mul(trace, b)
            rel_traces[r] = sub.add(sub.mul(two, a), tb)
            if r:  # b != 0: omega is primitive, so omega^r lies outside GF(q')
                back[0 if a == ZERO else (a - b) % sub.order + 1] = r  # canonical index of a / b
            a, b = sub.mul(minus_norm, b), sub.add(a, tb)
        self._coords_a, self._coords_b, self._back = coords_a, coords_b, back
        self._rel_traces = rel_traces

    def trace(self, k: int) -> int:
        """Tr(omega^k) into GF(p), an int in [0, p)."""
        sub = self.subfield
        if sub is None:
            return self.trace_table[k]
        # omega^k = c omega^r with c in GF(q'), so Tr(omega^k) = Tr'(c Tr_{q/q'}(omega^r))
        rel = self._rel_traces[k % self._nu]
        if rel == ZERO:
            return 0
        return sub.trace((k // self._nu * self._project_mult + rel) % sub.order)

    def _zech(self, k: int) -> int:
        """Z[k] = log(1 + omega^k) in a tower; an odd-degree field reads its
        zech_table instead."""
        sub, so = self.subfield, self.subfield.order
        # omega^k = c omega^r with r = k mod (q'+1) and c = N^(k div (q'+1)),
        # so 1 + omega^k = (1 + c a_r) + c b_r omega
        r = k % self._nu
        c = k // self._nu * self._project_mult
        a_r = self._coords_a[r]
        a = sub.one if a_r == ZERO else sub._zech((c + a_r) % so)
        if not r:  # b_0 = 0: 1 + c lies in GF(q')
            return ZERO if a == ZERO else a * self._embed_mult % self.order
        b = (c + self._coords_b[r]) % so
        # a + b omega = (b / b_r) omega^r for the r with a_r / b_r = a / b
        r = self._back[0 if a == ZERO else (a - b) % so + 1]
        return (r + (b - self._coords_b[r]) * self._embed_mult) % self.order

    def _find_primitive(self, mod: tuple[int, ...]) -> list[int]:
        p, f, n = self.p, self.f, self.order
        # The norm map onto GF(p)* takes a primitive element to a generator.
        # So for f > 1 and odd p only elements of primitive norm N are tried,
        # and on them x^(n/r) = N^((p-1)/r) != 1 for every prime r | p - 1.
        by_norm = f > 1 and p != 2
        norm_checks = [(p - 1) // r for r in _factor(p - 1)]
        checks = [n // r for r in _factor(n) if not by_norm or (p - 1) % r]
        # vectors in lex order; the last coordinate runs over a range, not
        # a pool of p ints, which for f = 1 would be a pool of q ints
        for head in itertools.product(range(p), repeat=f - 1):
            if by_norm and f == 2 and not any(head) and pow(mod[0], (p - 1) // 2, p) == 1:
                continue  # N(b x) = b^2 c0 is a square, never a generator of GF(p)*
            for last in range(p):
                vec = (*head, last)
                if not any(vec):
                    continue
                if f > 1 and not any(vec[1:]):
                    continue  # prime-field element, order divides p-1 < q-1
                if by_norm:
                    norm = _norm(vec, mod, p)
                    if not norm or any(pow(norm, m, p) == 1 for m in norm_checks):
                        continue  # norm 0 or not a generator of GF(p)*
                poly = _trim(list(vec))
                if all(_powmod(poly, m, mod, p) != [1] for m in checks):
                    return poly
        raise AssertionError("no primitive element found; invariant breach")

    # -- basic arithmetic ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == ZERO or b == ZERO:
            return ZERO
        return (a + b) % self.order

    def add(self, a: int, b: int) -> int:
        if a == ZERO:
            return b
        if b == ZERO:
            return a
        z = self._zech((b - a) % self.order)
        return ZERO if z == ZERO else (a + z) % self.order

    def neg(self, a: int) -> int:
        if a == ZERO or self.p == 2:
            return a
        return (a + self.half) % self.order

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def pow(self, a: int, k: int) -> int:
        if a == ZERO:
            if k <= 0:
                raise DivisionByZero("0 cannot be raised to a nonpositive power")
            return ZERO
        return (a * k) % self.order

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p) if a != ZERO else ZERO

    # -- representation helpers ---------------------------------------------

    def from_int(self, c: int) -> int:
        """The prime-field element c mod p, whose coordinates have index c."""
        if self.subfield is not None:
            return self.embed(self.subfield.from_int(c))
        return self.log_table[c % self.p]

    def nonzero(self):
        return range(self.order)

    # -- subfield machinery ---------------------------------------------------

    def _require_subfield(self) -> FieldContext:
        if self.subfield is None:
            raise NoSubfield(f"GF({self.p}^{self.f}) has no index-2 subfield here")
        return self.subfield

    def embed(self, x: int) -> int:
        """Map a subfield element into this field."""
        self._require_subfield()
        if x == ZERO:
            return ZERO
        return (x * self._embed_mult) % self.order

    def __repr__(self) -> str:  # pragma: no cover
        return f"FieldContext(GF({self.p}^{self.f}))"


@lru_cache(maxsize=None)
def build_field(p: int, f: int = 1) -> FieldContext:
    """Deterministic GF(p^f): lex-least modulus, lex-least primitive element."""
    if f < 1:
        raise FieldError("extension degree must be >= 1")
    if p < 2:
        raise NotPrime(f"{p} is not prime")
    if f >= MAX_FIELD_SIZE.bit_length() or p**f > MAX_FIELD_SIZE:
        if f % 2:
            why = f"{TABLE_BYTES_PER_ELEMENT} B of tables per element, {TABLE_BUDGET_BYTES >> 20} MiB budget"
        else:
            bound = isqrt(MAX_FIELD_SIZE)
            why = f"a tower holds no table: the cap bounds GF({p}^{f // 2}) by {bound}, and so the matrix order"
        raise TooLarge(f"GF({p}^{f}) exceeds the cap of {MAX_FIELD_SIZE} elements ({why})")
    if _factor(p) != {p: 1}:
        raise NotPrime(f"{p} is not prime")
    return FieldContext(FieldSpec(p, f, _least_irreducible(p, f)))


def minimal_polynomial(ctx: FieldContext, a: int) -> tuple[int, ...]:
    """Minimal polynomial of a over GF(p), monic, constant term first."""
    conjugates = []
    c = a
    while c not in conjugates:
        conjugates.append(c)
        c = ctx.frobenius(c)
    poly = [ctx.one]  # field-element coefficients, constant first
    for c in conjugates:
        nc = ctx.neg(c)
        poly = [ctx.mul(nc, poly[0])] + [
            ctx.add(poly[i - 1], ctx.mul(nc, poly[i])) for i in range(1, len(poly))
        ] + [poly[-1]]
    prime_field = {ctx.from_int(c): c for c in range(ctx.p)}
    if any(coeff not in prime_field for coeff in poly):
        raise AssertionError("minimal polynomial coefficient not in GF(p)")
    return tuple(prime_field[coeff] for coeff in poly)


def _subfield_logs(ext: FieldContext, base: FieldContext) -> tuple[int, int, int, Callable]:
    """(nu, t, t_inv, log) realizing GF(base.q) inside ext, from GF(p)
    polynomials alone: log(v) is the log in base of the subfield element of
    ext with coefficient vector v.  nu = (ext.q-1)/(base.q-1), and base's
    primitive element is omega^(nu t) for the least t coprime to base.q-1
    that makes it a root of that element's minimal polynomial."""
    if ext.p != base.p or ext.f % base.f:
        raise NoSubfield("not a subfield pair")
    p, d, mod_poly, order = ext.p, base.f, ext.spec.modulus, base.order
    nu = ext.order // order
    # y = omega^nu generates the subfield's multiplicative group
    y = _powmod(ext._omega, nu, mod_poly, p)
    if d == 1:
        # y and every subfield element are constants, whose logs base reads
        t_inv = base.from_int(y[0])
        return nu, pow(t_inv, -1, order) if order > 1 else 1, t_inv, lambda v: base.from_int(v[0])
    # y^d = sum_i rec[i] y^i, so the coordinates of y^(j+1) in the basis
    # 1, y, ..., y^(d-1) are those of y^j shifted up, plus rec times the top one
    powers = [[1]]
    for _ in range(d):
        powers.append(_mulmod(powers[-1], y, mod_poly, p))
    rec = _solve_mod_p(powers[:d], powers[d], p)
    coords, a = [], (1,) + (0,) * (d - 1)
    for _ in range(order):
        coords.append(a)
        a = tuple((lo + a[-1] * r) % p for lo, r in zip((0, *a[:-1]), rec))
    coeffs = minimal_polynomial(base, 1)
    for t in range(1, order):
        if gcd(t, order) == 1 and not any(
            sum(c * coords[t * i % order][j] for i, c in enumerate(coeffs)) % p for j in range(d)
        ):
            break
    else:
        raise AssertionError("no embedding found; invariant breach")
    t_inv = pow(t, -1, order)

    def log(v) -> int:
        # y^j has log j t_inv in base, since y^t is base's primitive element
        if not any(v):
            return ZERO
        return coords.index(tuple(_solve_mod_p(powers[:d], list(v), p))) * t_inv % order

    return nu, t, t_inv, log


def prime_power(q: int) -> tuple[int, int]:
    """Split q = p^f; raises FieldError if q is not a prime power.

    q above MAX_FIELD_SIZE is refused with TooLarge before any factoring.
    """
    if q > MAX_FIELD_SIZE:
        raise TooLarge(f"{q} exceeds the cap of {MAX_FIELD_SIZE} field elements")
    fac = _factor(q)  # {} for q <= 1
    if len(fac) != 1:
        raise FieldError(f"{q} is not a prime power")
    ((p, f),) = fac.items()
    return p, f


def quadratic_tower(q: int) -> tuple[FieldContext, FieldContext]:
    """(GF(q^2), GF(q)) with the extension's subfield link pointing at the base."""
    p, f = prime_power(q)
    ext = build_field(p, 2 * f)
    return ext, ext.subfield


def clear_caches() -> None:
    build_field.cache_clear()
