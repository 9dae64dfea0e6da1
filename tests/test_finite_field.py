import itertools
from collections.abc import Sized
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, primerange

import oracles
from conftest import NaiveField, canonical_index, counter_indices
from qrhadamard import finite_field
from qrhadamard.finite_field import (
    MAX_FIELD_SIZE,
    ZERO,
    DivisionByZero,
    FieldContext,
    FieldError,
    FieldSpec,
    NotPrime,
    TooLarge,
    _subfield_logs,
    build_field,
    is_irreducible,
    minimal_polynomial,
    prime_power,
)
from qrhadamard.hadamard import instances


def brute_force_least_primitive_root(p):
    """Oracle: least integer of multiplicative order p-1 mod p."""
    for g in range(1, p):
        x, order = g, 1
        while x != 1:
            x = x * g % p
            order += 1
        if order == p - 1:
            return g
    raise AssertionError


def test_gf11_least_primitive_is_two():
    ctx = build_field(11)
    assert ctx.q == 11
    assert ctx.from_int(2) == 1  # omega = 2
    assert brute_force_least_primitive_root(11) == 2


def test_gf2_trivial_unit():
    ctx = build_field(2)
    assert ctx.order == 1
    assert ctx.from_int(1) == ctx.one
    assert ctx.add(ctx.one, ctx.one) == ZERO


def square_repeatedly(vec, modulus, p, times):
    """Oracle: square a coefficient vector by plain polynomial arithmetic."""
    poly = [c for c in vec]
    for _ in range(times):
        prod = [0] * (2 * len(poly) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(poly):
                prod[i + j] = (prod[i + j] + a * b) % p
        for i in range(len(prod) - 1, len(modulus) - 2, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j, mc in enumerate(modulus[:-1]):
                    prod[i - len(modulus) + 1 + j] = (prod[i - len(modulus) + 1 + j] - c * mc) % p
        poly = prod[: len(modulus) - 1]
    return tuple(poly)


def test_gf289_primitive_order():
    ctx = build_field(17, 2)
    assert ctx.q == 289
    # 1 + omega^k meets every element but 1 exactly once: omega is primitive
    assert sorted(map(ctx._zech, range(288))) == [ZERO] + list(range(1, 288))
    # omega^(2^k) by independent repeated squaring: omega^256 * omega^32 = 1
    oracle = NaiveField(17, ctx.spec.modulus)
    assert [ctx.trace(k) for k in range(288)] == [oracle.trace(k) for k in range(288)]
    omega = oracle.exp[1]
    v256 = square_repeatedly(omega, ctx.spec.modulus, 17, 8)
    v32 = square_repeatedly(omega, ctx.spec.modulus, 17, 5)
    assert oracle.log[v256] == 256 and oracle.log[v32] == 32
    assert ctx.mul(256, 32) == ctx.one
    assert ctx.add(256, 32) == oracle.combine([(1, 256), (1, 32)])
    # omega^144 = -1 != 1: order is exactly 288
    assert square_repeatedly(omega, ctx.spec.modulus, 17, 4) == oracle.exp[16]
    assert ctx.add(144, ctx.one) == ZERO


def test_build_field_errors():
    with pytest.raises(NotPrime):
        build_field(6)
    # an odd degree builds tables: the cap is their memory budget
    tables = r"^GF\(2\^25\) exceeds the cap of 16777216 elements \(16 B of tables per element, 256 MiB budget\)$"
    with pytest.raises(TooLarge, match=tables):
        build_field(2, 25)
    # a tower builds none: the cap bounds its subfield, and so the matrix order
    tower = (
        r"^GF\(4099\^2\) exceeds the cap of 16777216 elements "
        r"\(a tower holds no table: the cap bounds GF\(4099\^1\) by 4096, and so the matrix order\)$"
    )
    with pytest.raises(TooLarge, match=tower):
        build_field(4099, 2)  # 4099^2 > 2^24, refused before anything is built
    with pytest.raises(TooLarge, match=r"^GF\(2\^1000000000\) exceeds the cap .*GF\(2\^500000000\)"):
        build_field(2, 10**9)
    with pytest.raises(FieldError):
        build_field(5, 0)


def test_mul_is_log_addition():
    ctx = build_field(13)
    assert ctx.mul(3, 5) == 8
    assert ctx.mul(10, 5) == (10 + 5) % 12


def test_additive_inverse_and_inv():
    ctx = build_field(11)
    for x in [ZERO] + counter_indices(20, ctx.order):
        assert ctx.add(x, ctx.neg(x)) == ZERO
    for k in counter_indices(20, ctx.order):
        assert ctx.pow(k, -1) == (ctx.order - k) % ctx.order
        assert ctx.mul(k, ctx.pow(k, -1)) == ctx.one


def test_discrete_log():
    # a nonzero element is stored as its discrete log: omega^7 is 7, and 1 is 0
    ctx = build_field(11)
    assert ctx.pow(1, 7) == 7
    assert ctx.one == 0
    # 2^6 = 64 = 9 mod 11
    assert pow(2, 6, 11) == 9
    assert ctx.from_int(9) == 6
    assert ZERO not in range(ctx.order)  # zero has no log
    with pytest.raises(DivisionByZero):
        ctx.pow(ZERO, 0)


def test_exp_mul_law_exhaustive_small():
    ctx = build_field(7)
    n = ctx.order
    for i in range(n):
        for j in range(n):
            assert ctx.mul(i, j) == (i + j) % n


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=287), st.integers(min_value=0, max_value=287))
def test_field_axioms_gf289(i, j):
    ctx = build_field(17, 2)
    assert ctx.add(i, j) == ctx.add(j, i)
    assert ctx.mul(i, j) == (i + j) % 288
    # distributivity against a fixed third element
    k = 57
    lhs = ctx.mul(k, ctx.add(i, j))
    rhs = ctx.add(ctx.mul(k, i), ctx.mul(k, j))
    assert lhs == rhs


def test_frobenius_is_ring_hom_200_pairs():
    ctx = build_field(3, 6)
    n = ctx.order
    pairs = zip(counter_indices(200, n, salt=1), counter_indices(200, n, salt=2))
    for a, b in pairs:
        assert ctx.frobenius(ctx.add(a, b)) == ctx.add(ctx.frobenius(a), ctx.frobenius(b))
        assert ctx.frobenius(ctx.mul(a, b)) == ctx.mul(ctx.frobenius(a), ctx.frobenius(b))


def test_rel_trace_doubles_subfield_elements(tower17):
    ext, base = tower17
    for x in [ZERO] + counter_indices(10, base.order):
        emb = ext.embed(x)
        assert oracles.rel_trace(ext, emb) == base.add(x, x)
    assert oracles.rel_trace(ext, ZERO) == ZERO


def test_rel_trace_frobenius_fixed(tower17):
    ext, base = tower17
    q = base.q
    for x in counter_indices(40, ext.order, salt=3):
        y = ext.add(x, ext.pow(x, q))
        assert y == ZERO or ext.pow(y, q) == y
        assert ext.embed(oracles.project(ext, y)) == y  # project raises outside GF(q)


def test_rel_trace_linearity(tower25):
    ext, base = tower25
    for a, x, y in zip(
        counter_indices(30, base.order, salt=4),
        counter_indices(30, ext.order, salt=5),
        counter_indices(30, ext.order, salt=6),
    ):
        lhs = oracles.rel_trace(ext, ext.add(ext.mul(ext.embed(a), x), y))
        rhs = base.add(base.mul(a, oracles.rel_trace(ext, x)), oracles.rel_trace(ext, y))
        assert lhs == rhs


def test_exp_table_covers_nonzero_elements():
    for p, f in [(11, 1), (3, 3), (5, 2)]:
        ctx = build_field(p, f)
        n = ctx.order
        # 1 + omega^0 .. 1 + omega^(q-2) meet every element but 1 exactly once
        assert sorted(map(ctx._zech, range(n))) == [ZERO] + list(range(1, n))
        assert ctx.from_int(1) == ctx.one
        oracle = NaiveField(p, ctx.spec.modulus)
        assert [ctx.trace(k) for k in range(n)] == [oracle.trace(k) for k in range(n)]


@pytest.mark.parametrize("p,f", [(2, 1), (2, 4), (3, 3), (3, 6), (5, 2), (7, 4), (29, 2), (5, 3), (3, 5)])
def test_field_core_against_naive_polynomial_oracle(p, f):
    ctx = build_field(p, f)
    oracle = NaiveField(p, ctx.spec.modulus)
    n = ctx.order
    for a in (ZERO, *ctx.nonzero()):
        for b in [ZERO, a] + counter_indices(8, n, salt=a % 7):
            assert ctx.add(a, b) == oracle.combine([(1, a), (1, b)])
            assert ctx.sub(a, b) == oracle.combine([(1, a), (-1, b)])
        assert ctx.neg(a) == oracle.combine([(-1, a)])
    for k in range(n):
        assert ctx.trace(k) == oracle.trace(k)
    for c in range(-p, 2 * p):
        assert ctx.from_int(c) == oracle.log[(c % p,) + (0,) * (f - 1)]
    if f % 2:  # log_table reads coordinates as base-p digits, the constant lowest
        for vec, k in oracle.log.items():
            assert ctx.log_table[sum(d * p**j for j, d in enumerate(vec))] == k
        return
    base = ctx.subfield
    sub_oracle = NaiveField(p, base.spec.modulus)
    d = f // 2
    # embed is GF(p)-linear: x = sum c_j X^j maps to sum c_j embed(X^j)
    basis = [ctx.embed(sub_oracle.log[tuple(int(i == j) for i in range(d))]) for j in range(d)]
    for x in (ZERO, *base.nonzero()):
        terms = list(zip(sub_oracle.vec(x), basis))
        assert ctx.embed(x) == oracle.combine(terms)
        assert oracles.project(ctx, ctx.embed(x)) == x
    with pytest.raises(FieldError):
        oracles.project(ctx, 1)


@pytest.mark.parametrize(
    "p,f",
    [(2, 1), (2, 4), (3, 3), (3, 6), (5, 2), (7, 4), (29, 2), (2, 2), (3, 2), (11, 2), (3, 5), (5, 3), (1091, 1)],
)
def test_zech_table_against_naive_polynomial_oracle(p, f):
    ctx = build_field(p, f)
    oracle = NaiveField(p, ctx.spec.modulus)
    n = ctx.order
    zech = [ctx._zech(k) for k in range(n)]
    assert zech == [oracle.combine([(1, 0), (1, k)]) for k in range(n)]
    if f % 2:  # an odd degree reads its zech_table
        assert list(ctx.zech_table) == zech
        assert [ctx.add(0, k) for k in range(n)] == zech


@pytest.mark.parametrize("p,f", [(8191, 1), (3, 7)])
def test_an_odd_degree_field_stays_inside_its_table_budget(p, f):
    # three 4-byte tables are kept and the walk that fills them holds no lookup
    # table, within TABLE_BYTES_PER_ELEMENT = 16 (the modulus and omega
    # searches hold no pool of p ints: ~36 bytes each)
    import tracemalloc

    tracemalloc.start()
    try:
        ctx = build_field.__wrapped__(p, f)  # uncached: the whole build
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    q = ctx.q
    tables = (ctx.log_table, ctx.trace_table, ctx.zech_table)
    assert sum(t.itemsize * len(t) for t in tables) == 12 * q - 8
    assert peak < finite_field.TABLE_BYTES_PER_ELEMENT * q * 1.1, peak / q


@pytest.mark.parametrize("p,f", [(2, 2), (2, 4), (3, 2), (3, 6), (5, 2), (7, 4), (29, 2), (11, 2)])
def test_a_tower_holds_no_table_of_its_own_size(p, f):
    """An even-degree field adds and takes traces over its subfield: it holds
    no log, trace or Zech table, and nothing longer than q' + 1."""
    ctx = build_field(p, f)
    for name in ("log_table", "trace_table", "zech_table"):
        with pytest.raises(AttributeError):
            getattr(ctx, name)
    assert max(len(v) for v in vars(ctx).values() if isinstance(v, Sized)) == ctx.subfield.q + 1


def test_non_primitive_omega_is_refused(monkeypatch):
    modulus = build_field(5, 2).spec.modulus
    oracle = NaiveField(5, modulus)
    orders = {}
    for vec in itertools.product(range(5), repeat=2):
        if vec[1]:  # outside GF(5), so 1 and omega span GF(25)
            x, k = vec, 1
            while x != (1, 0):
                x, k = oracle.mul(x, vec), k + 1
            orders[vec] = k
    non_primitive = [vec for vec, k in orders.items() if k < 24]
    assert sorted({orders[vec] for vec in non_primitive}) == [3, 6, 8, 12]
    for omega in non_primitive:
        monkeypatch.setattr(FieldContext, "_find_primitive", lambda self, mod, omega=omega: list(omega))
        with pytest.raises(AssertionError, match="omega repeats an element"):
            FieldContext(FieldSpec(5, 2, modulus))


# the prime q of the q3 and q1 ladders
@pytest.mark.parametrize("q", [q for family, _, q in instances() if family != "regular" and prime_power(q)[1] == 1])
def test_norm_filter_keeps_the_lex_least_primitive_element(q):
    ctx = build_field(q, 2)
    mod, n = ctx.spec.modulus, ctx.order
    checks = [n // r for r in factorint(n)]
    want = next(
        list(vec) for vec in itertools.product(range(q), repeat=2)
        if vec[1] and all(finite_field._powmod(list(vec), k, mod, q) != [1] for k in checks)
    )
    assert ctx._omega == want


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 29])
def test_norm_filter_searches_the_b_x_block_when_c0_is_not_a_square(p):
    # N(b x) = b^2 c0: the canonical modulus has c0 = 1, a square, so its
    # search skips the block of the elements b x; any other c0 needs it searched
    ctx = build_field(p, 2)
    assert ctx.spec.modulus[0] == 1
    n = ctx.order
    checks = [n // r for r in factorint(n)]
    found_in_block = 0
    for c0, c1 in itertools.product(range(1, p), range(p)):
        mod = (c0, c1, 1)
        if pow(c0, (p - 1) // 2, p) == 1 or not is_irreducible(mod, p):
            continue
        want = next(
            list(vec) for vec in itertools.product(range(p), repeat=2)
            if vec[1] and all(finite_field._powmod(list(vec), k, mod, p) != [1] for k in checks)
        )
        assert ctx._find_primitive(mod) == want, mod
        found_in_block += want[0] == 0
    assert found_in_block


# degrees above 2, where the norm is a power: the towers over q = 9, 25,
# 49, 169, 841 and 27, and odd degrees
@pytest.mark.parametrize("p,f", [(3, 4), (5, 4), (7, 4), (13, 4), (29, 4), (3, 6), (3, 3), (5, 3), (3, 5)])
def test_norm_filter_keeps_the_lex_least_primitive_element_above_degree_2(p, f):
    ctx = build_field(p, f)
    mod, n = ctx.spec.modulus, ctx.order
    checks = [n // r for r in factorint(n)]
    want = next(
        finite_field._trim(list(vec)) for vec in itertools.product(range(p), repeat=f)
        if any(vec[1:]) and all(finite_field._powmod(list(vec), k, mod, p) != [1] for k in checks)
    )
    assert ctx._omega == want


@pytest.mark.parametrize("p,f", [(7, 2), (29, 2), (3, 3), (5, 4), (29, 4), (3, 5), (3, 6)])
def test_norm_is_the_power_of_the_norm_map(p, f):
    # N(a) = a^((q - 1)/(p - 1)), a constant; 0 for a = 0
    mod, q = build_field(p, f).spec.modulus, p**f
    for k in range(60):
        vec = tuple(counter_indices(f, p, salt=k))
        want = finite_field._powmod(list(vec), (q - 1) // (p - 1), mod, p) if any(vec) else []
        assert [finite_field._norm(vec, mod, p)] == (want or [0]), vec


def test_irreducibility_oracle():
    # x^2 - 1 factors; x^2 + 1 is irreducible mod 7 but not mod 17
    assert not is_irreducible((16, 0, 1), 17)  # x^2 - 1
    assert is_irreducible((1, 0, 1), 7)
    assert not is_irreducible((1, 0, 1), 17)  # -1 is a square mod 17


def _least_irreducible_by_full_scan(p, f):
    """The modulus search before it skipped constant term 0."""
    for coeffs in itertools.product(range(p), repeat=f):
        if is_irreducible(coeffs + (1,), p):
            return coeffs + (1,)


def test_least_irreducible_matches_the_full_scan():
    cases = [(p, f) for p in primerange(2, 4097) for f in range(1, 13) if p**f <= 4096]
    cases += [(1091, 2), (3613, 2)]
    for p, f in cases:
        assert finite_field._least_irreducible(p, f) == _least_irreducible_by_full_scan(p, f), (p, f)
    assert finite_field._least_irreducible(7, 1) == (0, 1)


def test_minimal_polynomial_has_root():
    ctx = build_field(3, 3)
    for a in counter_indices(8, ctx.order, salt=7):
        coeffs = minimal_polynomial(ctx, a)
        acc = ZERO
        for c in reversed(coeffs):
            acc = ctx.add(ctx.mul(acc, a), ctx.from_int(c))
        assert acc == ZERO


def test_embedding_is_field_hom(tower25):
    ext, base = tower25
    for a, b in zip(counter_indices(40, base.order, salt=8), counter_indices(40, base.order, salt=9)):
        assert ext.embed(base.add(a, b)) == ext.add(ext.embed(a), ext.embed(b))
        assert ext.embed(base.mul(a, b)) == ext.mul(ext.embed(a), ext.embed(b))
        assert oracles.project(ext, ext.embed(a)) == a


def test_embedding_data_for_degree_gt_2():
    ext = build_field(5, 4)
    base = build_field(5, 1)
    nu, t, t_inv, _ = _subfield_logs(ext, base)
    assert nu == (5**4 - 1) // 4
    img = (nu * t) % ext.order
    # image of the base primitive element must have order p-1
    assert ext.pow(img, 4) == ext.one
    assert ext.pow(img, 2) != ext.one


def test_prime_power_helper(monkeypatch):
    assert prime_power(27) == (3, 3)
    assert prime_power(49) == (7, 2)
    with pytest.raises(FieldError):
        prime_power(12)
    for q in (0, 1, -5):
        with pytest.raises(FieldError, match=f"^{q} is not a prime power$"):
            prime_power(q)
    assert MAX_FIELD_SIZE == 2**24
    assert prime_power(2**24) == (2, 24)

    def no_factoring(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(finite_field, "_factor", no_factoring)
    for q in (2**24 + 1, 8399589116837456607**2):
        with pytest.raises(TooLarge, match="exceeds the cap of 16777216 field elements"):
            prime_power(q)


def _check_factor(n):
    fac = finite_field._factor(n)
    assert prod(p**k for p, k in fac.items()) == n
    assert fac == dict(factorint(n))


def test_factor_against_sympy_up_to_20000():
    for n in range(1, 20001):
        _check_factor(n)


def test_factor_against_sympy_at_the_boundaries():
    # 4093 and 4099 are the primes next to 4096 = sqrt(2^24);
    # 2^24 - 3 and 2^24 + 43 are the primes next to the cap
    for n in (2**24, 2**24 - 1, 4093, 4099, 4093**2, 4093 * 4099, 4099**2, 2**24 - 3, 2**24 + 43):
        _check_factor(n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=2**24))
def test_factor_property_up_to_the_cap(n):
    _check_factor(n)


def test_prime_power_accepts_exactly_the_prime_powers_to_5000():
    powers = {p**k: (p, k) for p in primerange(2, 5001) for k in range(1, 13) if p**k <= 5000}
    for q in range(2, 5001):
        if q in powers:
            assert prime_power(q) == powers[q]
        else:
            with pytest.raises(FieldError, match="is not a prime power"):
                prime_power(q)


def test_canonical_order_round_trip():
    ctx = build_field(7)
    elems = [ZERO, *ctx.nonzero()]
    assert elems[1] == ctx.one and ZERO not in ctx.nonzero()
    assert [canonical_index(x) for x in elems] == list(range(ctx.q))
