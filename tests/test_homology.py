"""Smith normal form, boundary slices between critical bases, and homology.

The hand-rolled exact SNF is cross-checked in two independent ways: its
invariant factors against sympy's implementation, and its transform
certificates by literal matrix multiplication plus unimodularity of the
transforms. The dense elimination, which carries its certificates as
extra rows and columns, is checked against the former one, whose closures
kept them in separate matrices: the same rank, factors, diagonal and
certificates. The sparse route (transforms=False), a streamed echelon of
+-1 pivot rows with a dense residue, is checked against the dense
certificate route (transforms=True) and sympy, on 3000 small random
matrices, on random sparse +-1 matrices with planted non-unit blocks and
on real Morse slices; and against two reference peels (tests/peels.py),
a column sweep and a least-Markowitz-cost order, on the rows of each
matrix and of its transpose.
Slices are kept as sparse rows; the boundary-squared check on them is
checked against the former dense compose, kept here as the reference.
The stability scan, which reads every bound from the slices at its top
bound, is checked against homology computed afresh at each bound. The
homology path pauses the cyclic collector: it must be off while slices
are built, come back as the caller had it on return and on an exception,
and a paused run must leave no cyclic garbage. sympy is a test-only
dependency; the package itself never imports it.
"""

import functools
import gc
import json
import random
from fractions import Fraction

import pytest
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from fkmorse.chains import Chain, boundary
from fkmorse.errors import SelfCheckError, TruncationError
from fkmorse import cli as cli_module, flow as flow_module, homology, pairing
from fkmorse.cli import main
from fkmorse.flow import FlowContext, y_power
from fkmorse.homology import (
    MorseSlice,
    SnfResult,
    _compose_is_zero,
    _leading_block,
    _unit_echelon,
    build_slice,
    collector_paused,
    compute_homology,
    critical_basis,
    homology_of_slices,
    morse_context,
    smith_normal_form,
    stability_scan,
)
from fkmorse.pairing import Matching, PairingFlags, Scope, SteepnessRule
from fkmorse.simplicial import Simplex, surjective_words

from dense import densify, sparsify
from peels import column_sweep_peel, markowitz_peel, transpose
from routes import matching_context

S = Simplex


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _check_certificates(matrix, result):
    rows, cols = len(matrix), len(matrix[0])
    assert len(result.left) == rows and all(len(r) == rows
                                            for r in result.left)
    assert len(result.right) == cols and all(len(r) == cols
                                             for r in result.right)
    product = _mat_mul(_mat_mul(result.left, matrix), result.right)
    assert product == result.diagonal
    assert abs(Matrix(result.left).det()) == 1
    assert abs(Matrix(result.right).det()) == 1


# --- Smith normal form -------------------------------------------------------------

def test_snf_worked_example():
    result = smith_normal_form([[2, 4], [6, 8]], transforms=True)
    assert result.rank == 2
    assert result.invariant_factors == [2, 4]
    assert result.diagonal == [[2, 0], [0, 4]]
    _check_certificates([[2, 4], [6, 8]], result)


def test_snf_structured_cases():
    assert smith_normal_form([[0, 0], [0, 0]]).rank == 0
    assert smith_normal_form([[1, 0], [0, 1]]).invariant_factors == [1, 1]
    assert smith_normal_form([[4, 0], [0, 6]]).invariant_factors == [2, 12]
    assert smith_normal_form([[6, 4]]).invariant_factors == [2]
    assert smith_normal_form([[5]]).invariant_factors == [5]
    assert smith_normal_form([[-3]]).invariant_factors == [3]
    assert smith_normal_form([[3], [5]]).invariant_factors == [1]


def test_snf_empty_shapes():
    empty = smith_normal_form([])
    assert empty.rank == 0
    assert empty.invariant_factors == []
    assert empty.diagonal is None
    assert empty.left is None and empty.right is None
    row_of_nothing = smith_normal_form([[]])
    assert row_of_nothing.rank == 0
    assert row_of_nothing.diagonal is None


def test_snf_rejects_ragged_input():
    with pytest.raises(ValueError, match="ragged"):
        smith_normal_form([[1, 2], [3]])


@pytest.mark.parametrize("transforms", [False, True],
                         ids=["sparse", "dense"])
def test_snf_refuses_non_integer_entries(transforms):
    # both routes once truncated these, to the factors [2] and [1, 3]
    with pytest.raises(TypeError, match=r"^matrix entry 2\.5 at \(0, 0\) "
                                        r"is not an integer$"):
        smith_normal_form([[2.5]], transforms=transforms)
    with pytest.raises(TypeError, match=r"entry 3\.9 at \(1, 1\)"):
        smith_normal_form([[True, 0], [0, 3.9]], transforms=transforms)
    with pytest.raises(TypeError, match=r"entry Fraction\(1, 2\) at \(0, 1\)"):
        smith_normal_form([[1, Fraction(1, 2)]], transforms=transforms)
    # integers and bools keep their factors, as ints
    factors = smith_normal_form([[True, 0], [0, 3]],
                                transforms=transforms).invariant_factors
    assert factors == [1, 3] and all(type(f) is int for f in factors)
    assert smith_normal_form([[2, 4], [6, 8]],
                             transforms=transforms).invariant_factors == [2, 4]


def test_snf_factors_are_positive_and_form_a_divisibility_chain():
    rng = random.Random(20260819)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        matrix = [[rng.randint(-9, 9) for _ in range(cols)]
                  for _ in range(rows)]
        factors = smith_normal_form(matrix).invariant_factors
        assert all(f > 0 for f in factors)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


def test_snf_matches_sympy_randomized():
    rng = random.Random(991)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        matrix = [[rng.randint(-9, 9) for _ in range(cols)]
                  for _ in range(rows)]
        mine = smith_normal_form(matrix)
        theirs = sympy_snf(Matrix(matrix), domain=ZZ)
        their_factors = sorted(abs(theirs[i, i])
                               for i in range(min(rows, cols))
                               if theirs[i, i] != 0)
        assert mine.invariant_factors == their_factors


def test_snf_certificates_randomized():
    rng = random.Random(17)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        matrix = [[rng.randint(-6, 6) for _ in range(cols)]
                  for _ in range(rows)]
        result = smith_normal_form(matrix, transforms=True)
        _check_certificates(matrix, result)


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _reference_dense_snf(a, transforms=False):
    """The former elimination, kept as the check route: the same pivot
    order, with each row and column step a closure that updates the
    certificates in separate matrices."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    left = _identity(rows) if transforms else None
    right = _identity(cols) if transforms else None

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        if left is not None:
            left[i], left[j] = left[j], left[i]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        if right is not None:
            for row in right:
                row[i], row[j] = row[j], row[i]

    def add_row(src: int, dst: int, q: int) -> None:
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        if left is not None:
            left[dst] = [x + q * y for x, y in zip(left[dst], left[src])]

    def add_col(src: int, dst: int, q: int) -> None:
        for row in a:
            row[dst] += q * row[src]
        if right is not None:
            for row in right:
                row[dst] += q * row[src]

    def negate_row(i: int) -> None:
        a[i] = [-x for x in a[i]]
        if left is not None:
            left[i] = [-x for x in left[i]]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        while True:
            # clear column t, then row t; smaller remainders become pivots
            dirty = False
            for i in range(rows):
                if i != t and a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(cols):
                if j != t and a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # divisibility: the pivot must divide the rest of the submatrix
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    return SnfResult(rank=t,
                     invariant_factors=[a[k][k] for k in range(t)],
                     diagonal=a, left=left, right=right)


def _elimination_cases():
    """Seeded matrices up to 7 x 7 over {0, +-1, 2, -3, 4, 6}, then the
    empty shapes: a 0 x n matrix has no row to carry n, so it is [] like
    0 x 0; n x 0 is n empty rows."""
    rng = random.Random(40417)
    entries = (0, 0, 1, -1, 2, -3, 4, 6)
    for _ in range(400):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        yield [[rng.choice(entries) for _ in range(cols)]
               for _ in range(rows)]
    yield []
    for n in range(1, 4):
        yield [[] for _ in range(n)]


@pytest.mark.parametrize("transforms", [False, True],
                         ids=["factors", "certificates"])
def test_dense_elimination_matches_the_reference_route(transforms):
    for matrix in _elimination_cases():
        mine = homology._dense_snf([list(r) for r in matrix], transforms)
        theirs = _reference_dense_snf([list(r) for r in matrix], transforms)
        assert (mine.rank, mine.invariant_factors, mine.diagonal,
                mine.left, mine.right) == \
            (theirs.rank, theirs.invariant_factors, theirs.diagonal,
             theirs.left, theirs.right), matrix
        if transforms and matrix and matrix[0]:
            _check_certificates(matrix, mine)


def _sympy_factors(matrix):
    rows, cols = len(matrix), len(matrix[0])
    theirs = sympy_snf(Matrix(matrix), domain=ZZ)
    return sorted(abs(theirs[i, i]) for i in range(min(rows, cols))
                  if theirs[i, i] != 0)


def _diagonal(factors, rows, cols):
    """The rows x cols Smith form with the given invariant factors."""
    return [[factors[i] if i == j and i < len(factors) else 0
             for j in range(cols)] for i in range(rows)]


def _unit_sparse_with_planted_block(rng):
    """A sparse matrix, mostly +-1 with a few entries 2 or -3, with the block
    [[2, 4], [4, 14]] (factors 2, 6) planted in two extra rows and columns,
    mixed by unimodular row and column additions, then shuffled."""
    rows, cols = rng.randint(6, 38), rng.randint(6, 28)
    entries = (1, -1) * 7 + (2, -3)
    m = [[rng.choice(entries) if rng.random() < 0.12 else 0
          for _ in range(cols)] + [0, 0] for _ in range(rows)]
    m += [[0] * cols + [2, 4], [0] * cols + [4, 14]]
    rows, cols = rows + 2, cols + 2
    for _ in range(8):
        i, k = rng.sample(range(rows), 2)
        c = rng.choice((1, -1))
        m[i] = [x + c * y for x, y in zip(m[i], m[k])]
        j, k = rng.sample(range(cols), 2)
        for row in m:
            row[j] += c * row[k]
    rng.shuffle(m)
    order = list(range(cols))
    rng.shuffle(order)
    return [[row[j] for j in order] for row in m]


def test_snf_sparse_route_matches_sympy_and_dense_route():
    rng = random.Random(2001)
    for _ in range(12):
        matrix = _unit_sparse_with_planted_block(rng)
        pivots, residue = _unit_echelon(sparsify(matrix))
        assert residue and residue[0]  # the planted block survives
        sparse = smith_normal_form(matrix)
        dense = smith_normal_form(matrix, transforms=True)
        assert sparse.invariant_factors == _sympy_factors(matrix)
        assert sparse.invariant_factors == dense.invariant_factors
        assert sparse.rank == dense.rank
        assert sparse.diagonal is None
        assert dense.diagonal == _diagonal(sparse.invariant_factors,
                                           len(matrix), len(matrix[0]))
        assert sparse.left is None and sparse.right is None
        torsion = [f for f in sparse.invariant_factors if f != 1]
        assert len(torsion) >= 2 and torsion[-1] % 6 == 0
        assert pivots <= sparse.rank - 2


def test_snf_sparse_route_matches_the_dense_route_and_sympy_on_small_matrices():
    rng = random.Random(2701)
    with_torsion = 0
    for _ in range(3000):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        matrix = [[rng.randint(-4, 4) if rng.random() < 0.5 else 0
                   for _ in range(cols)] for _ in range(rows)]
        factors = smith_normal_form(matrix).invariant_factors
        assert factors == \
            smith_normal_form(matrix, transforms=True).invariant_factors == \
            _sympy_factors(matrix), matrix
        with_torsion += any(f != 1 for f in factors)
    assert with_torsion > 1000


def test_snf_planted_block_alone():
    matrix = [[0, 2, 4], [1, 0, 0], [0, 4, 14]]
    assert _unit_echelon(sparsify(matrix)) == (1, [[2, 4], [4, 14]])
    assert smith_normal_form(matrix).invariant_factors == [1, 2, 6]
    assert smith_normal_form(matrix).diagonal is None
    assert smith_normal_form(matrix, transforms=True).diagonal == \
        _diagonal([1, 2, 6], 3, 3)


@pytest.mark.parametrize("shape", [(1, 1), (3, 2), (2, 5), (4, 4)])
def test_snf_sparse_route_on_zero_matrices(shape):
    rows, cols = shape
    matrix = [[0] * cols for _ in range(rows)]
    result = smith_normal_form(matrix)
    assert result.rank == 0
    assert result.invariant_factors == []
    assert result.diagonal is None
    assert smith_normal_form(matrix, transforms=True).diagonal == matrix


def test_snf_sparse_route_on_empty_shapes():
    for matrix in ([], [[]]):
        sparse = smith_normal_form(matrix)
        dense = smith_normal_form(matrix, transforms=True)
        assert (sparse.rank, sparse.invariant_factors) == \
            (dense.rank, dense.invariant_factors)
        assert sparse.diagonal is None
        assert dense.diagonal == matrix


def test_unit_echelon_pivots_a_set_aside_row_once_a_later_row_has():
    # the first row holds no unit until the second row's pivot in column 1
    # leaves a -1 in column 0; the rows themselves stay as they were
    rows = [{0: 2, 1: 3}, {0: 1, 1: 1}]
    assert _unit_echelon(rows) == (2, [])
    assert rows == [{0: 2, 1: 3}, {0: 1, 1: 1}]


def test_unit_echelon_leaves_the_rows_with_no_unit_as_the_residue():
    assert _unit_echelon([{0: 2}, {1: 1}]) == (1, [[2]])
    assert _unit_echelon([{0: 2, 1: 2}, {0: 2, 1: 4}]) == \
        (0, [[2, 2], [2, 4]])


def test_unit_echelon_drops_the_rows_that_reduce_to_zero():
    # an empty row; a row the pivot row above it clears; and a set-aside
    # row that a later pivot row clears on the second pass
    assert _unit_echelon([{}, {0: 1, 2: -1}, {0: 3, 2: -3}]) == (1, [])
    assert _unit_echelon([{0: 2, 1: 2}, {0: 1, 1: 1}]) == (1, [])


def _peeled_factors(peel, matrix):
    pivots, residue = peel(matrix)
    return [1] * pivots + smith_normal_form(residue).invariant_factors


def _sparse_peel(matrix):
    return column_sweep_peel(sparsify(matrix))


def _sparse_echelon(matrix):
    return _unit_echelon(sparsify(matrix))


@pytest.mark.parametrize("degree,length,slice_degree",
                         [(3, 6, 4), (4, 5, 4), (4, 5, 5)])
def test_column_sweep_peel_on_real_slices(degree, length, slice_degree):
    ctx, report, _ = morse_context(degree, length)
    slc = build_slice(ctx, report, slice_degree)
    rows = [dict(row) for row in slc.rows]
    peeled, residue = column_sweep_peel(slc.rows)
    assert residue == []
    assert slc.rows == rows  # the peel works on a copy
    matrix = densify(slc.rows, len(slc.basis_lo))
    assert [1] * peeled == _peeled_factors(markowitz_peel, matrix)


@pytest.mark.parametrize("degree,length", [(3, 6), (4, 5), (3, 7), (4, 7)])
def test_unit_echelon_matches_the_column_sweep_on_real_slices(degree,
                                                              length):
    ctx, report, _ = morse_context(degree, length)
    for slice_degree in (degree, degree + 1):
        slc = build_slice(ctx, report, slice_degree)
        rows = [dict(row) for row in slc.rows]
        pivots, residue = _unit_echelon(slc.rows)
        assert slc.rows == rows  # the echelon works on copies
        factors = smith_normal_form(residue).invariant_factors
        cols = len(slc.basis_lo)
        for peeled, left in (column_sweep_peel(slc.rows),
                             column_sweep_peel(transpose(slc.rows, cols))):
            assert (peeled, smith_normal_form(left).invariant_factors) == \
                (pivots, factors), slice_degree


def test_column_sweep_peel_sweeps_until_no_unit_is_left():
    # column 0 holds no unit when the first sweep passes it; the pivot in
    # column 1 then leaves a -1 there, which a second sweep peels
    assert column_sweep_peel(sparsify([[3, 2], [2, 1]])) == (2, [])
    assert markowitz_peel([[3, 2], [2, 1]]) == (2, [])


def test_column_sweep_peel_on_planted_blocks():
    rng = random.Random(2001)
    for _ in range(12):
        matrix = _unit_sparse_with_planted_block(rng)
        _, residue = column_sweep_peel(sparsify(matrix))
        assert all(v not in (1, -1) for row in residue for v in row)
        assert _peeled_factors(_sparse_peel, matrix) == \
            _peeled_factors(_sparse_echelon, matrix) == \
            _peeled_factors(markowitz_peel, matrix) == \
            _sympy_factors(matrix)


def _both_orientations(peel, rows, cols):
    """[1] * pivots plus the residue's invariant factors, from the rows and
    from the rows of the transpose."""
    return [[1] * pivots + smith_normal_form(residue).invariant_factors
            for pivots, residue in (peel(rows), peel(transpose(rows, cols)))]


@functools.cache
def _slices_at_5_6():
    ctx, report, _ = morse_context(5, 6)
    return [build_slice(ctx, report, k) for k in range(1, 7)]


def test_peel_gives_the_same_factors_on_both_orientations_of_real_slices():
    # every slice of degree <= 6 at bound <= 6: the leading blocks of the
    # slices at (5, 6), as stability_scan reads them
    for slc in _slices_at_5_6():
        for length in range(1, 7):
            block = _leading_block(slc, length)
            cols = len(block.basis_lo)
            factors = _peeled_factors(markowitz_peel,
                                      densify(block.rows, cols))
            for peel in (column_sweep_peel, _unit_echelon):
                assert _both_orientations(peel, block.rows, cols) == \
                    [factors, factors], (slc.degree, length, peel)


def test_peel_gives_the_same_factors_on_both_orientations_of_seeded_matrices():
    rng = random.Random(2301)
    for _ in range(16):
        matrix = _unit_sparse_with_planted_block(rng)
        factors = _sympy_factors(matrix)
        assert _peeled_factors(markowitz_peel, matrix) == factors
        for peel in (column_sweep_peel, _unit_echelon):
            assert _both_orientations(peel, sparsify(matrix),
                                      len(matrix[0])) == [factors, factors]


@pytest.mark.parametrize("degree,length", [(4, 5), (3, 5)])
def test_snf_routes_agree_on_real_slices(degree, length):
    ctx, report, _ = morse_context(degree, length)
    for slice_degree in (degree, degree + 1):
        slc = build_slice(ctx, report, slice_degree)
        matrix = densify(slc.rows, len(slc.basis_lo))
        sparse = smith_normal_form(matrix)
        dense = smith_normal_form(matrix, transforms=True)
        assert sparse.rank == dense.rank
        assert sparse.invariant_factors == dense.invariant_factors
        assert sparse.diagonal is None
        assert dense.diagonal == _diagonal(sparse.invariant_factors,
                                           len(matrix), len(matrix[0]))


# --- critical bases and slices -------------------------------------------------------

@pytest.fixture(scope="module")
def context_1_4():
    return morse_context(1, 4)


def test_morse_context_scope(context_1_4):
    ctx, report, rule = context_1_4
    assert ctx.scope == report.scope == Scope(3, 4)
    # one lazy rule serves the flow and the report; no matching is built
    assert type(rule) is SteepnessRule
    assert ctx.pairing is report.pairing is rule
    assert rule.flags == PairingFlags()


def test_critical_basis_contents(context_1_4):
    _, report, _ = context_1_4
    assert critical_basis(report, 0, 4) == [S(0, ())]
    assert critical_basis(report, 1, 4) == [S(1, (1,))]
    assert [c.word for c in critical_basis(report, 2, 4)] == [
        (2, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2, 1), (1, 2, 1, 1),
        (2, 1, 1, 1)]


def test_slice_shapes_and_entries(context_1_4):
    ctx, report, _ = context_1_4
    lo = build_slice(ctx, report, 1)
    hi = build_slice(ctx, report, 2)
    assert lo.basis_lo == [S(0, ())]
    assert lo.basis_hi == [S(1, (1,))]
    assert densify(lo.rows, 1) == [[0]]
    assert hi.basis_lo == [S(1, (1,))]
    assert len(hi.basis_hi) == 6
    assert densify(hi.rows, 1) == [[0]] * 6
    assert ctx.dual_route_checks == 7  # one dual-route check per matrix entry


@pytest.mark.parametrize("degree,length", [(1, 6), (2, 5), (3, 4)])
def test_the_homology_path_walks_no_stratum_of_dimension_degree_plus_two(
        monkeypatch, degree, length):
    # the scope reaches dimension d + 2 only for its size guard: the rule
    # decides which (d+1)-cells pair upward from the (d+1)-words alone
    walked = {pairing: [], flow_module: []}
    for module, seen in walked.items():
        def recording(dim, length, seen=seen):
            seen.append((dim, length))
            return surjective_words(dim, length)

        monkeypatch.setattr(module, "surjective_words", recording)
    ctx, report, _ = morse_context(degree, length)
    build_slice(ctx, report, degree)
    build_slice(ctx, report, degree + 1)
    # the report makes the bases' critical words, dimensions d - 1 to
    # d + 1, from the rest words one letter shorter and one dimension
    # lower, so it walks dimensions d - 2 to d at lengths up to L - 1; the
    # coface tables walk the strata of dimensions d and d + 1
    assert {dim for dim, _ in walked[pairing]} == \
        set(range(max(degree - 2, 0), degree + 1))
    assert max(k for _, k in walked[pairing]) == length - 1
    assert {dim for dim, _ in walked[flow_module]} == {degree, degree + 1}
    # no stratum of dimension d + 2 is walked, and each keeps what it
    # walks, so no stratum is walked twice by either
    for seen in walked.values():
        assert max(dim for dim, _ in seen) < degree + 2
        assert len(seen) == len(set(seen))


def test_slice_serialization(context_1_4):
    ctx, report, _ = context_1_4
    lo = build_slice(ctx, report, 1)
    assert lo.to_json() == (
        '{"degree":1,"scope":{"max_dim":3,"max_length":4},'
        '"rows":["a1"],"cols":["e"],"matrix":[[0]]}')
    assert lo.to_csv().splitlines() == ["simplex,e", "a1,0"]


def test_boundary_of_critical_two_cells_is_a_power_identity():
    # Every critical 2-cell c with letters 1 and 2 has raw boundary
    # y^(#2s) - y^(length) + y^(#1s); after stabilization the powers all
    # drain to multiples of y and cancel, which is why the degree-2 slice
    # is a zero matrix.
    ctx, report, _ = morse_context(1, 7)
    cells = critical_basis(report, 2, 7)
    assert len(cells) == 21
    for cell in cells:
        ones = cell.word.count(1)
        twos = cell.word.count(2)
        raw = boundary(Chain.unit(cell))
        assert raw == (Chain.unit(y_power(twos))
                       - Chain.unit(y_power(cell.length))
                       + Chain.unit(y_power(ones)))
        stable, _ = ctx.stabilize(raw)
        assert stable.is_zero()


@pytest.mark.parametrize("mode", ["unnormalized", "normalized"])
@pytest.mark.parametrize("policy", ["critical", "allow"])
@pytest.mark.parametrize("degree,length", [(1, 6), (2, 5), (3, 5), (4, 4)])
def test_slices_on_the_rule_equal_the_slices_on_a_built_matching(
        degree, length, policy, mode):
    """morse_context runs on the lazy rule; the former route builds and
    validates the matching, keeps its walk's leftovers as the bases and
    asks the matching's pair dicts.  Both give the same bases and rows."""
    flags = PairingFlags(policy)
    if (policy, mode) == ("allow", "normalized"):  # refused on both routes
        for route in (morse_context, matching_context):
            with pytest.raises(ValueError, match="incoherent"):
                route(degree, length, flags, mode)
        return
    ctx, report, _ = morse_context(degree, length, flags, mode)
    built_ctx, built, matching = matching_context(degree, length, flags, mode)
    assert type(matching) is Matching and ctx.scope == built_ctx.scope
    for slice_degree in (degree, degree + 1):
        slc = build_slice(ctx, report, slice_degree)
        assert slc == build_slice(built_ctx, built, slice_degree)
        assert slc.basis_hi == critical_basis(built, slice_degree, length)
    assert ctx.dual_route_checks == built_ctx.dual_route_checks > 0


@pytest.mark.parametrize("policy", ["critical", "allow"])
@pytest.mark.parametrize("argv", [
    "homology --degree 2 --max-length 5",
    "homology --degree 1 --scan 2 6",
    "morse --degree 3 --max-length 5 --format csv",
], ids=["homology", "scan", "morse"])
def test_the_homology_path_builds_no_matching(monkeypatch, capsys, argv,
                                             policy):
    argv = argv.split() + ["--degenerate-policy", policy]
    assert main(argv) == 0
    expected = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("the homology path built a matching")

    modules = (pairing, homology, flow_module, cli_module)
    for name in ("build_matching", "validate_matching"):
        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(Matching, "__init__", refuse)
    monkeypatch.setattr(Matching, "_hold", refuse)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected != ""


@pytest.mark.parametrize("argv", [
    "homology --degree 0 --max-length 20000",
    "homology --degree 1 --max-length 14",
    "homology --degree 2 --max-length 11",
    "homology --degree 3 --max-length 10",
    "homology --degree 3 --max-length 12",
    "homology --degree 6 --max-length 7",
    "homology --degree 1 --scan 2 30",
    "morse --degree 7 --max-length 7",
])
def test_oversized_scopes_are_refused_before_any_word_is_walked(
        monkeypatch, capsys, argv):
    """The size guard counts every stratum up to dimension d + 2, as the
    matching's did, though the path walks no stratum above d + 1; so each
    of these still exits 3, at once, with nothing on stdout."""
    def refuse(*args):
        raise AssertionError("a word was walked")

    for module in (pairing, flow_module):
        monkeypatch.setattr(module, "surjective_words", refuse)
        monkeypatch.setattr(module, "stratum_words", refuse)
    assert main(argv.split()) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "over the limit" in err


def test_entries_of_top_dimension_cells_are_answered_on_the_rule():
    # a matching cannot tell whether a cell of its top dimension is
    # critical; the rule's context can, and agrees with a matching one
    # dimension wider
    ctx = morse_context(1, 4)[0]
    top, sigma = S(3, (3, 2, 1)), S(2, (2, 1))
    assert ctx.scope.max_dim == 3
    with pytest.raises(ValueError, match="undecided"):
        matching_context(1, 4)[0].morse_boundary_entry(top, sigma)
    assert ctx.morse_boundary_entry(top, sigma) == \
        matching_context(2, 4)[0].morse_boundary_entry(top, sigma) == -1


# --- homology of consecutive slices ---------------------------------------------------

def _fake(degree, basis_lo, basis_hi, matrix, scope=Scope(3, 3)):
    return MorseSlice(degree, basis_lo, basis_hi, sparsify(matrix), scope)


E0, Y, SIG2 = S(0, ()), S(1, (1,)), S(2, (2, 1))


def test_homology_of_slices_errors():
    lo = _fake(1, [E0], [Y], [[0]])
    with pytest.raises(ValueError, match="consecutive degrees"):
        homology_of_slices(lo, _fake(3, [Y], [SIG2], [[0]]))
    with pytest.raises(ValueError, match="different scopes"):
        homology_of_slices(lo, _fake(2, [Y], [SIG2], [[0]], Scope(4, 4)))
    with pytest.raises(ValueError, match="middle critical basis"):
        homology_of_slices(lo, _fake(2, [S(1, (1, 1))], [SIG2], [[0]]))


def test_homology_of_slices_rejects_nonzero_composition():
    lo = _fake(1, [E0], [Y], [[1]])
    hi = _fake(2, [Y], [SIG2], [[1]])
    with pytest.raises(SelfCheckError, match="boundary squared"):
        homology_of_slices(lo, hi)


def _dense_compose_is_zero(lo, hi):
    """The former dense check of boundary squared, kept as the reference:
    each row of hi, widened, times the widened rows of lo."""
    lo_matrix = densify(lo.rows, len(lo.basis_lo))
    for row in densify(hi.rows, len(hi.basis_lo)):
        acc = [0] * len(lo.basis_lo)
        for coef, lo_row in zip(row, lo_matrix):
            if coef:
                acc = [x + coef * y for x, y in zip(acc, lo_row)]
        if any(acc):
            return False
    return True


@pytest.mark.parametrize("degree,length", [(3, 6), (4, 5)])
def test_sparse_compose_agrees_with_the_dense_reference(degree, length):
    ctx, report, _ = morse_context(degree, length)
    lo = build_slice(ctx, report, degree)
    hi = build_slice(ctx, report, degree + 1)
    assert _compose_is_zero(lo, hi) is _dense_compose_is_zero(lo, hi) is True
    # plant a row of hi that meets one nonzero row of lo alone
    k = next(k for k, row in enumerate(lo.rows) if row)
    planted = MorseSlice(hi.degree, hi.basis_lo, hi.basis_hi,
                         hi.rows[:-1] + [{k: 1}], hi.scope)
    assert _compose_is_zero(lo, planted) is \
        _dense_compose_is_zero(lo, planted) is False


@pytest.mark.parametrize("policy", ["critical", "allow"])
@pytest.mark.parametrize("degree,length", [(3, 6), (4, 5)])
def test_slice_rows_hold_only_nonzero_entries_of_basis_columns(
        degree, length, policy):
    # the morse command's "all entries zero" line reads empty rows as zero
    ctx, report, _ = morse_context(degree, length, PairingFlags(policy))
    for slice_degree in (degree, degree + 1):
        slc = build_slice(ctx, report, slice_degree)
        assert any(slc.rows)
        blocks = [_leading_block(slc, L) for L in range(1, length)]
        for block in [slc] + blocks:
            assert len(block.rows) == len(block.basis_hi)
            columns = range(len(block.basis_lo))
            assert all(j in columns and type(v) is int and v != 0
                       for row in block.rows for j, v in row.items())


def test_homology_of_slices_torsion_path():
    lo = _fake(1, [E0], [Y], [[0]])
    hi = _fake(2, [Y], [SIG2], [[3]])
    result = homology_of_slices(lo, hi)
    assert result.betti == 0
    assert result.torsion == [3]


def test_homology_of_slices_free_path(context_1_4):
    ctx, report, _ = context_1_4
    result = homology_of_slices(build_slice(ctx, report, 1),
                                build_slice(ctx, report, 2))
    assert result.betti == 1
    assert result.torsion == []
    assert result.degree == 1
    assert result.max_length == 4
    # leading blocks of the slices at (5, 6): a tall slice, 652 x 186, and
    # a wide one, 60 x 112, each reduced by its rows
    slices = _slices_at_5_6()
    tall_lo, tall = (_leading_block(slices[k], 6) for k in (2, 3))
    wide_lo, wide = (_leading_block(slices[k], 5) for k in (3, 4))
    assert (len(tall.rows), len(tall.basis_lo)) == (652, 186)
    assert (len(wide.rows), len(wide.basis_lo)) == (60, 112)
    assert homology_of_slices(tall_lo, tall) == compute_homology(3, 6)
    assert homology_of_slices(wide_lo, wide) == compute_homology(4, 5)


# --- top-level homology and the stability scan ----------------------------------------

@pytest.mark.parametrize("length", range(2, 8))
def test_first_homology_is_infinite_cyclic(length):
    result = compute_homology(1, length)
    assert (result.betti, result.torsion) == (1, [])


@pytest.mark.parametrize("length", range(2, 6))
def test_zeroth_homology_is_infinite_cyclic(length):
    result = compute_homology(0, length)
    assert (result.betti, result.torsion) == (1, [])


def test_homology_result_json_is_stable():
    result = compute_homology(1, 4)
    assert result.to_json() == (
        '{"degree":1,"scope":{"max_length":4},"betti":1,"torsion":[]}')


def test_homology_in_allow_mode_agrees_in_degree_one():
    default = compute_homology(1, 5)
    allowed = compute_homology(
        1, 5, flags=PairingFlags(degenerate_policy="allow"))
    assert (default.betti, default.torsion) == \
        (allowed.betti, allowed.torsion)


def test_stability_scan_finds_the_stable_window():
    scan = stability_scan(1, 2, 7)
    assert scan.degree == 1
    assert [r.max_length for r in scan.results] == [2, 3, 4, 5, 6, 7]
    assert all((r.betti, r.torsion) == (1, []) for r in scan.results)
    assert scan.stable_from == 2


@pytest.mark.parametrize("mode", ["unnormalized", "normalized"])
@pytest.mark.parametrize("policy", ["critical", "allow"])
@pytest.mark.parametrize("degree,lo,hi",
                         [(1, 1, 6), (2, 2, 6), (3, 2, 5), (2, 4, 4)])
def test_stability_scan_equals_homology_at_each_bound(degree, lo, hi, policy,
                                                     mode):
    """The scan takes leading blocks of the slices at its top bound; the
    oracle builds a matching and both slices at every bound."""
    flags = PairingFlags(degenerate_policy=policy)
    if (policy, mode) == ("allow", "normalized"):  # refused on both routes
        with pytest.raises(ValueError) as scan_error:
            stability_scan(degree, lo, hi, flags, mode)
        with pytest.raises(ValueError) as per_bound_error:
            compute_homology(degree, lo, flags, mode)
        assert str(scan_error.value) == str(per_bound_error.value)
        return
    scan = stability_scan(degree, lo, hi, flags, mode)
    per_bound = [compute_homology(degree, L, flags, mode)
                 for L in range(lo, hi + 1)]
    assert scan.results == per_bound
    last = (per_bound[-1].betti, per_bound[-1].torsion)
    changed = [r.max_length for r in per_bound if (r.betti, r.torsion) != last]
    assert scan.stable_from == (max(changed) + 1 if changed else lo)


@pytest.mark.parametrize("policy", ["critical", "allow"])
def test_leading_blocks_are_the_slices_at_smaller_bounds(policy):
    flags = PairingFlags(degenerate_policy=policy)
    ctx, report, _ = morse_context(2, 5, flags)
    top = [build_slice(ctx, report, d) for d in (2, 3)]
    for length in range(1, 5):
        ctx, report, _ = morse_context(2, length, flags)
        for slc in top:
            assert _leading_block(slc, length) == \
                build_slice(ctx, report, slc.degree)


def test_stability_scan_checks_its_bounds_before_building(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a flow context or matching was built")

    for name in ("build_matching", "FlowContext", "CriticalReport"):
        monkeypatch.setattr(homology, name, no_build)
    with pytest.raises(ValueError, match="scope bounds must be >= 1"):
        stability_scan(1, 0, 3)
    with pytest.raises(ValueError, match="degree must be >= 0"):
        stability_scan(-1, 0, 3)
    # the degree is checked before the range, so an empty range does not
    # hide a negative degree
    with pytest.raises(ValueError, match="degree must be >= 0"):
        stability_scan(-1, 5, 3)
    assert stability_scan(1, 5, 3).results == []


def test_allow_with_normalized_is_refused_before_building(monkeypatch,
                                                          capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("a flow context or matching was built")

    for name in ("build_matching", "FlowContext", "CriticalReport"):
        monkeypatch.setattr(homology, name, no_build)
    allow = PairingFlags("allow")
    refusal = "normalized chains drop degenerate cells"
    with pytest.raises(ValueError, match=refusal):
        compute_homology(5, 7, allow, "normalized")
    with pytest.raises(ValueError, match=refusal):
        stability_scan(5, 2, 7, allow, "normalized")
    with pytest.raises(ValueError, match=refusal):
        morse_context(5, 7, allow, "normalized")
    with pytest.raises(ValueError, match="unknown chain mode"):
        compute_homology(1, 3, mode="reduced")
    for command in ("morse --degree 5", "homology --degree 5"):
        argv = (command + " --max-length 7 --degenerate-policy allow "
                "--mode normalized").split()
        assert main(argv) == 2, command
        assert refusal in capsys.readouterr().err, command


def test_stability_scan_empty_range():
    scan = stability_scan(1, 5, 4)
    assert scan.results == []
    assert scan.stable_from is None


def test_stability_scan_json_round_trips_through_loads():
    scan = stability_scan(1, 2, 3)
    data = json.loads(scan.to_json())
    assert data["degree"] == 1
    assert data["stable_from"] == 2
    assert [entry["scope"]["max_length"] for entry in data["results"]] == \
        [2, 3]


# --- the collector pause ------------------------------------------------------------

@pytest.fixture
def collector_off():
    """The collector disabled for the test body, as a caller may have it."""
    gc.disable()
    yield
    gc.enable()


def _record_collector(monkeypatch):
    """gc.isenabled() at each boundary_rows call, which every slice makes."""
    seen = []
    rows = FlowContext.boundary_rows

    def recording(self, *args):
        seen.append(gc.isenabled())
        return rows(self, *args)

    monkeypatch.setattr(FlowContext, "boundary_rows", recording)
    return seen


@pytest.mark.parametrize("run", [
    lambda: compute_homology(3, 6),
    lambda: stability_scan(2, 2, 6),
    lambda: main(["morse", "--degree", "3", "--max-length", "5"]),
], ids=["compute_homology", "stability_scan", "morse"])
def test_the_homology_path_pauses_the_collector_and_puts_it_back(
        run, monkeypatch, capsys):
    seen = _record_collector(monkeypatch)
    assert gc.isenabled()
    run()
    assert seen and not any(seen)
    assert gc.isenabled()


def test_the_pause_keeps_a_caller_disabled_collector_disabled(
        collector_off, monkeypatch):
    seen = _record_collector(monkeypatch)
    compute_homology(2, 4)
    assert seen and not any(seen)
    assert not gc.isenabled()
    with collector_paused():
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_the_collector_is_put_back_when_the_path_raises():
    # the dimension-8 stratum at length 7 is over the limit, and is refused
    # by morse_context's size guard, inside the pause
    with pytest.raises(TruncationError, match=r"stratum \(dim 8, length 7\)"):
        compute_homology(6, 7)
    assert gc.isenabled()


def test_the_homology_path_leaves_no_cyclic_garbage(collector_off):
    # the pause is safe only while reference counting frees everything the
    # path drops: no object of the run may be left for the collector
    gc.collect()
    assert compute_homology(3, 6).betti == 1
    assert gc.collect() == 0
