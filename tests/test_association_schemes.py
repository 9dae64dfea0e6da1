import itertools
from collections import Counter

import pytest

import oracles
from conftest import counter_indices, shipped_partition
from qrhadamard import association_schemes as schemes
from qrhadamard import character_sums as cs
from qrhadamard import intersection_sets as isets
from qrhadamard.errors import BudgetExceeded, InputError, VerifyError
from qrhadamard.finite_field import ZERO, quadratic_tower

TOL = 1e-6


@pytest.fixture(scope="module")
def m3(tower17):
    ext, _ = tower17
    return ext, shipped_partition(3)


@pytest.fixture(scope="module")
def m5():
    ext, _ = quadratic_tower(49)
    return ext, shipped_partition(5)


def test_partition_validation():
    with pytest.raises(InputError, match=r"^index lists must partition \[0, e\)$"):
        schemes.normalized_partition(17, 3, 12, [(0, 1), (2,), (3,), (4,)])
    with pytest.raises(InputError, match=r"^index lists must partition \[0, e\)$"):
        schemes.normalized_partition(17, 3, 12, [(0, 12), (1, 2), (3,), tuple(range(4, 12))])


def _structure(ext, part):
    """The form check, then the shift condition on the residues mod e."""
    schemes._check_form(ext, part.q, part.m, part.e)
    return schemes._shifted(part)


def test_structure_shift_condition(m3, m5):
    for ext, part in (m3, m5):
        assert _structure(ext, part)


def test_structure_rejects_perturbation(m3):
    ext, part = m3
    # swap one index between H_1 and H_2: the shift pairing breaks
    h1, h2, h3, h4 = part.h_lists
    swapped = (tuple(sorted((h1[0],) + h2[1:])), tuple(sorted((h2[0],) + h1[1:])), h3, h4)
    perturbed = schemes.SchemePartition(part.q, part.m, part.e, swapped)
    assert not _structure(ext, perturbed)


def test_structure_bad_form(m3):
    ext, part = m3
    with pytest.raises(InputError, match="^q = 17 is not of the regular form at m = 4$"):
        _structure(ext, schemes.SchemePartition(17, 4, 12, part.h_lists))
    # m = -3 also gives 2m^2 - 1 = 17, but the family's m is at least 1
    with pytest.raises(InputError, match="^q = 17 is not of the regular form at m = -3$"):
        schemes.verify_scheme(ext, schemes.SchemePartition(17, -3, 12, part.h_lists))
    ext5, _ = quadratic_tower(5)
    with pytest.raises(InputError, match=r"^context is not the quadratic tower over GF\(17\)$"):
        _structure(ext5, part)


def _structure_by_elements(ext, part):
    """The element-level loop that _shifted replaced: every exponent k of
    GF(q^2)*, not only the residues mod e."""
    cls = part.residue_class()
    e, n = part.e, ext.order
    shift = (2 * part.m * part.m) % n
    coset = (4 * part.m * part.m) % n
    want = {1: 3, 2: 4, 3: 1, 4: 2}
    for k in range(n):
        c = cls[k % e]
        if cls[(k + shift) % n % e] != want[c] or cls[(k + coset) % n % e] != c:
            return False
    return True


def _structure_cases(part):
    """The partition, its rotations, every single index moved to another
    list and every swap of two indices between lists."""
    e, h = part.e, part.h_lists
    cases = [[[(j + r) % e for j in hs] for hs in h] for r in range(e)]
    for a, b in itertools.permutations(range(4), 2):
        for j in h[a]:
            moved = [list(hs) for hs in h]
            moved[a].remove(j)
            moved[b].append(j)
            cases.append(moved)
            if a < b:
                for k in h[b]:
                    swapped = [list(hs) for hs in h]
                    swapped[a][swapped[a].index(j)] = k
                    swapped[b][swapped[b].index(k)] = j
                    cases.append(swapped)
    return [schemes.normalized_partition(part.q, part.m, e, hs) for hs in cases]


def test_verify_structure_matches_the_element_loop(m3, m5):
    # e = 36 lifts the m = 3 partition to a finer class modulus (36 | 4m^2 and 36 | q^2 - 1)
    ext3, part3 = m3
    lifted = schemes.normalized_partition(17, 3, 36, [[j for j in range(36) if j % 12 in hs] for hs in part3.h_lists])
    verdicts = []
    for ext, part in (m3, m5, (ext3, lifted)):
        for case in _structure_cases(part):
            verdict = _structure(ext, case)
            assert verdict == _structure_by_elements(ext, case), case
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_scheme_verification_m3(m3):
    ext, part = m3
    report = schemes.verify_scheme(ext, part)
    assert report.is_scheme and report.symmetric
    assert report.table1_match and report.tau == -1
    assert report.class_sizes == (1, 48, 96, 48, 96)
    assert [tau for tau, miss in report.table1_misses if miss is None] == [-1]


def test_scheme_verification_m5(m5):
    ext, part = m5
    report = schemes.verify_scheme(ext, part)
    assert report.is_scheme and report.table1_match
    assert report.class_sizes == (1, 480, 720, 480, 720)


def _witness_sweeps(ext, e):
    """For one witness w in each residue class r mod e (not omega^r itself):
    how many u of GF(q^2) have (u mod e, (w - u) mod e) = (a, b), with -1
    standing for ZERO."""
    sweeps = []
    for r in range(e):
        w = r + e * (1 + counter_indices(1, ext.order // e - 1, salt=r)[0])
        sweep = Counter()
        for u in (ZERO, *ext.nonzero()):
            v = ext.sub(w, u)
            sweep[-1 if u == ZERO else u % e, -1 if v == ZERO else v % e] += 1
        sweeps.append(sweep)
    return sweeps


def _scheme_by_elements(ext, part, sweeps):
    """Whether X_0..X_4 is a symmetric four-class scheme, from counts over
    the elements: the shift structure, each X_i nonempty and closed under
    negation, and every intersection number p_ij^k(w) = #{u in X_i : w - u
    in X_j} the same for the witnesses w of every class X_k."""
    e = part.e
    klass = {-1: 0, **dict(enumerate(part.residue_class()))}
    if not (_structure_by_elements(ext, part) and all(part.h_lists)):
        return False
    if any(klass[ext.neg(u) % e] != klass[u % e] for u in ext.nonzero()):
        return False
    numbers = {}
    for r, sweep in enumerate(sweeps):
        counts = Counter()
        for (a, b), count in sweep.items():
            counts[klass[a], klass[b]] += count
        if numbers.setdefault(klass[r], counts) != counts:
            return False
    return True


def test_is_scheme_matches_the_element_level_intersection_numbers(m3, m5):
    # every shape-valid m = 3, e = 12 vector, those with X_1 and X_3 empty,
    # the rotations and perturbations of both shipped schemes and of the
    # m = 3 one lifted to e = 36, and every labelling of the cyclotomic
    # scheme of e = 4, a scheme with or without the shift structure
    ext3, part3 = m3
    cyclotomic = [
        schemes.normalized_partition(17, 3, 4, [[j] for j in perm]) for perm in itertools.permutations(range(4))
    ]
    lifted = schemes.normalized_partition(17, 3, 36, [[j for j in range(36) if j % 12 in hs] for hs in part3.h_lists])
    shape_valid = [
        schemes.normalized_partition(17, 3, 12, _assignment_lists(a, 6))
        for size1 in (2, 0)
        for a in _assignments(12, size1)
    ]
    verdicts = Counter()
    for ext, cases in ((ext3, shape_valid + _structure_cases(part3)), (m5[0], _structure_cases(m5[1])),
                       (ext3, _structure_cases(lifted)), (ext3, cyclotomic)):
        sweeps = _witness_sweeps(ext, cases[0].e)
        for part in cases:
            verdict = schemes.verify_scheme(ext, part).is_scheme
            assert verdict == _scheme_by_elements(ext, part, sweeps), part
            verdicts[verdict, _structure(ext, part)] += 1
    assert len(shape_valid) == 960 + 64
    assert verdicts[True, True] > 20 + 36 and verdicts[False, True] > 0


def test_negation_closed_classes(m3):
    ext, part = m3
    cls = part.residue_class()
    for r in range(part.e):
        assert cls[(r + ext.half) % ext.order % part.e] == cls[r]


def test_eigen_rows_sum_to_minus_one(m3, m5):
    for ext, part in (m3, m5):
        report = schemes.verify_scheme(ext, part)
        for row in schemes.eigenmatrix_rows(ext, part, report.tau)[1:]:
            total = sum(row[1:])
            assert abs(total - (-1)) < TOL


def test_eigen_row_weighted_column_orthogonality(m3):
    ext, part = m3
    report = schemes.verify_scheme(ext, part)
    # dual class sizes equal the class sizes here (Y_i is a relabeled X_i^q)
    sizes = report.class_sizes
    rows = schemes.eigenmatrix_rows(ext, part, report.tau)
    for c1 in range(5):
        for c2 in range(5):
            acc = sum(sizes[i] * rows[i][c1] * rows[i][c2].conjugate() for i in range(5))
            want = ext.q * sizes[c1] if c1 == c2 else 0.0
            assert abs(acc - want) < TOL


def test_eigen_frozen_cell_and_trivial_column(m3):
    ext, part = m3
    report = schemes.verify_scheme(ext, part)
    want = (11 - 3 * 17**0.5) / 2  # row Y_1, column X_1 at m = 3
    rows = schemes.eigenmatrix_rows(ext, part, report.tau)
    assert abs(rows[1][1] - want) < TOL
    for row in rows:
        assert abs(row[0] - 1) < TOL


def test_eigen_values_brute_force_spot_check(m3):
    ext, part = m3
    report = schemes.verify_scheme(ext, part)
    cls = part.residue_class()
    members = {c: [k for k in ext.nonzero() if cls[k % part.e] == c] for c in range(1, 5)}
    ylists = schemes._dual_residues(part, part.q, report.tau)
    rows = schemes.eigenmatrix_rows(ext, part, report.tau)
    for i, ylist in enumerate(ylists, start=1):
        for a in counter_indices(3, len(ylist), salt=i):
            rep_a = ylist[a]  # one element per chosen residue: omega^rep_a
            for c in range(1, 5):
                brute = sum(oracles.additive_char(ext, ext.mul(rep_a, x)) for x in members[c])
                assert abs(brute - rows[i][c]) < TOL


def test_verbatim_lists_are_labeling_dependent(m3):
    # the same index lists under a different primitive-element convention:
    # the shift structure is invariant, the eigenvalue table is not
    ext, part = m3
    alt = schemes.normalized_partition(17, 3, 12, [(1, 5), (0, 2, 9, 10), (7, 11), (3, 4, 6, 8)])
    assert _structure(ext, alt)
    report = schemes.verify_scheme(ext, alt)
    assert not report.table1_match
    assert [tau for tau, _ in report.table1_misses] == [1, -1]
    for _, miss in report.table1_misses:
        assert miss is not None


def test_swapped_lists_fail_table(m3):
    ext, part = m3
    h1, h2, h3, h4 = part.h_lists
    swapped = schemes.SchemePartition(part.q, part.m, part.e, (h1, h4, h3, h2))
    assert not schemes.verify_scheme(ext, swapped).table1_match
    with pytest.raises(VerifyError, match="^partition fails scheme or eigenvalue-table verification$"):
        schemes.require_scheme(ext, swapped)
    assert schemes.require_scheme(ext, part).tau == -1


def test_bannai_muzychuk(m3):
    ext, part = m3
    rows = schemes.eigenmatrix_rows(ext, part, schemes.verify_scheme(ext, part).tau)
    assert oracles.bannai_muzychuk_check(rows, [(0,), (1, 3), (2, 4)])
    assert oracles.bannai_muzychuk_check(rows, [(0,), (1, 2, 3, 4)])
    assert not oracles.bannai_muzychuk_check(rows, [(0,), (1,), (2, 3, 4)])
    with pytest.raises(InputError, match=r"^groups must partition the column set with group 0 = \{0\}$"):
        oracles.bannai_muzychuk_check(rows, [(0, 1), (2, 3, 4)])


def test_two_class_fusion_character_values(m3):
    # the coarse classes take exactly the two expected nontrivial values
    ext, part = m3
    rows = schemes.eigenmatrix_rows(ext, part, schemes.verify_scheme(ext, part).tau)
    m = part.m
    w1_vals = {round((rows[i][1] + rows[i][3]).real, 6) for i in range(1, 5)}
    w2_vals = {round((rows[i][2] + rows[i][4]).real, 6) for i in range(1, 5)}
    assert w1_vals == {m * m + m - 1, -m * m + m}
    assert w2_vals == {m * m - m - 1, -m * m - m}


@pytest.mark.parametrize("m,sizes", [(3, (6, 9)), (5, (20, 25))])
def test_two_intersection_sets(m, sizes, m3, m5):
    ext, part = m3 if m == 3 else m5
    params = isets.find_params(ext, "regular", partition=part)
    assert params.tau == schemes.verify_scheme(ext, part).tau
    d0, d1 = isets.scheme_dsets(ext, part, params.ell)
    assert (d0.bit_count(), d1.bit_count()) == sizes
    assert d0.bit_count() + d1.bit_count() == 2 * m * m - m
    members = (d0 | d1 << ext.subfield.q) << 1  # the star is point 0
    design = isets.doubled_symmetric_design(ext.subfield)
    prof = isets.intersection_profile(members, design)
    assert {v for v, _ in prof.profile} == {m * m - m, m * m}


def test_search_finds_example(m3):
    ext, part = m3
    results = schemes.scheme_search(ext, 12)
    assert part in results
    # every reported partition actually verifies
    for found in results:
        rep = schemes.verify_scheme(ext, found)
        assert rep.is_scheme and rep.table1_match


def test_search_budget_zero(m3):
    ext, _ = m3
    with pytest.raises(BudgetExceeded, match="^search needs 160 candidates, over the budget of 0$"):
        schemes.scheme_search(ext, 12, budget=0)


def _assignments(e, size1):
    """Every shape-valid assignment of the seed search: a in 0..3 per residue
    r < e/2 puts (r, r + e/2) into (H_1, H_3), (H_3, H_1), (H_2, H_4) or (H_4, H_2),
    with |H_1| = size1 (e(m-1)/(4m) in a search)."""
    half = e // 2
    for assign in itertools.product(range(4), repeat=half):
        if sum(1 for a in assign if a < 2) == size1:
            yield assign


def _assignment_lists(assign, half):
    lists = [[], [], [], []]
    for r, a in enumerate(assign):
        lo, hi = ((0, 2), (2, 0), (1, 3), (3, 1))[a]
        lists[lo].append(r)
        lists[hi].append(r + half)
    return lists


def _rotated(part, k):
    return schemes.normalized_partition(
        part.q, part.m, part.e, [[(j + k) % part.e for j in hs] for hs in part.h_lists]
    )


def test_search_matches_brute_force_oracle(m3):
    # the seed's search: all 4^(e/2) assignments, no orbit reduction
    ext, _ = m3
    e = 12
    want = []
    for assign in _assignments(e, 2):
        part = schemes.normalized_partition(17, 3, e, _assignment_lists(assign, e // 2))
        report = schemes.verify_scheme(ext, part)
        if report.is_scheme and report.table1_match:
            want.append(part)
    assert len(want) == 12
    assert schemes.scheme_search(ext, e) == sorted(want, key=lambda p: p.h_lists)


def test_search_m5_returns_the_rotations_of_the_shipped_scheme(m5):
    ext, _ = m5
    shipped = shipped_partition(5)
    rotations = {_rotated(shipped, k) for k in range(20)}
    assert len(rotations) == 20
    results = schemes.scheme_search(ext, 20)  # 43008 candidates fit the default budget
    assert len(results) == 20 and set(results) == rotations


@pytest.mark.parametrize("m", [3, 5])
def test_every_rotation_verifies_with_alternating_tau(m, m3, m5):
    ext, _ = m3 if m == 3 else m5
    shipped = shipped_partition(m)
    tau0 = schemes.verify_scheme(ext, shipped).tau
    for k in range(shipped.e):
        report = schemes.verify_scheme(ext, _rotated(shipped, k))
        assert report.is_scheme and report.table1_match
        assert [tau for tau, miss in report.table1_misses if miss is None] == [tau0 * (-1) ** k]


@pytest.mark.parametrize("m", [3, 5])
def test_table1_survivors_match_brute_force(m, m3, m5):
    # every shape-valid vector with 0 in H_1, each put through the full
    # table-1 check for both taus
    ext, part = m3 if m == 3 else m5
    e, half = part.e, part.e // 2
    size1 = e * (m - 1) // (4 * m)
    rows, expected = schemes._table1_inputs(ext, e, m)
    duals = [schemes._dual_map(part.q, m, e, tau) for tau in (1, -1)]
    want = set()
    for assign in itertools.product(range(4), repeat=half - 1):
        if sum(1 for a in assign if a < 2) != size1 - 1:
            continue
        h_lists = _assignment_lists((0,) + assign, half)
        if any(schemes._table1_miss(h_lists, rows, expected, dual) is None for dual in duals):
            cls = [0] * e
            for i, hs in enumerate(h_lists, start=1):
                for j in hs:
                    cls[j] = i
            want.add(tuple(cls))
    got = list(schemes._table1_survivors(e, size1, rows, expected, duals))
    assert len(got) == len(set(got)) and set(got) == want
    assert part.residue_class() in {c[k:] + c[:k] for c in want for k in range(e)}


def test_search_budget_boundary(m3):
    ext, _ = m3
    # the budget counts the seed's assignments with 0 in H_1
    count = sum(1 for assign in _assignments(12, 2) if assign[0] == 0)
    assert count == 160
    assert len(schemes.scheme_search(ext, 12, budget=count)) == 12
    with pytest.raises(BudgetExceeded, match=f"^search needs {count} candidates, over the budget of {count - 1}$"):
        schemes.scheme_search(ext, 12, budget=count - 1)


def _table1_misses(ext, part, tau):
    """Cells of table 1 missed by brute-force character sums, in (row, least
    residue first, column) order."""
    e, q, m = part.e, part.q, part.m
    periods = [sum(oracles.additive_char(ext, x) for x in range(r, ext.order, e)) for r in range(e)]
    expected = schemes.table1_values(m, cs.quadratic_gauss_sum(ext.subfield))
    for i, hs in enumerate(part.h_lists, start=1):
        for r in sorted({(j * q - m * m * tau) % e for j in hs}):
            for c, hc in enumerate(part.h_lists, start=1):
                got = sum(periods[(j + r) % e] for j in hc)
                if abs(got - schemes.cell_value(q, expected[i][c])) > TOL:
                    yield i, c, got, expected[i][c]


def test_table1_misses_check_every_residue(m3):
    ext, _ = m3
    checked = 0
    for assign in _assignments(12, 2):
        if assign[0]:
            continue
        part = schemes.normalized_partition(17, 3, 12, _assignment_lists(assign, 6))
        misses = schemes.verify_scheme(ext, part).table1_misses
        assert [tau for tau, _ in misses] == [1, -1]
        for tau, got in misses:
            want = next(_table1_misses(ext, part, tau), None)
            assert (got is None) == (want is None)
            if got is not None:
                assert got[:2] == want[:2] and abs(schemes.cell_value(17, got[2]) - want[2]) < TOL and got[3] == want[3]
            checked += 1
    assert checked == 320


def test_search_coarser_modulus_runs(m3):
    ext, _ = m3
    results = schemes.scheme_search(ext, 6)
    assert isinstance(results, list)  # recorded result; not an acceptance target


def test_partition_file_roundtrip(m3):
    _, part = m3
    text = schemes.partition_text(part)
    again = schemes.parse_partition(text)
    assert again == part
    with pytest.raises(InputError, match="^partition file needs a header line and four index lines$"):
        schemes.parse_partition("17 3\n1 2\n")
    with pytest.raises(InputError, match=r"^malformed partition file: invalid literal for int\(\) with base 10: 'seven'$"):
        schemes.parse_partition("17 3 12\n0 1\n2 3\n4 5\n6 seven\n")
    with pytest.raises(InputError, match=r"^index lists must partition \[0, e\)$"):
        schemes.parse_partition("17 3 12\n0 1\n2 3\n4 5\n6 7\n")  # not a partition


def test_report_json_shape(m3):
    ext, part = m3
    report = schemes.verify_scheme(ext, part)
    payload = schemes.scheme_report_json(ext, part, report)
    assert payload["is_scheme"] and payload["table1_match"]
    assert payload["tau"] == -1
    assert len(payload["eigenmatrix"]) == 5
    assert all(len(row) == 5 for row in payload["eigenmatrix"])
    assert all(len(cell) == 2 for row in payload["eigenmatrix"] for cell in row)
