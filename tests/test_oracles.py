"""Facts from topology and combinatorics that the code never assumes.

* H_d(Omega S^2; Z) is Z in every degree d (James; Bott-Samelson).  The
  words of length <= L model the L-th James stage J_L(S^1), and the
  length-L quotient is S^L (Milnor, On the construction FK, 1956), so the
  truncated complex has H_d = Z for 0 <= d <= L and 0 for d > L, exactly.
  The stability scan over L therefore settles at max(d, LO).
* Each word length alone is a sphere: the quotient J_l / J_(l-1) is S^l,
  so the length-l diagonal blocks of the Morse slices have homology Z in
  degree l and 0 in every other degree.
* The raw complex needs none of the Morse machinery: the normalized
  boundary on every nondegenerate word of length <= L, through the Smith
  normal form, gives the same homology as the Morse slices.
* Matched pairs sit in one stratum and in adjacent dimensions, so they
  cancel in an alternating count.  Per word length L, the nondegenerate
  critical cells therefore have the Euler characteristic of all
  nondegenerate words of length L: sum_n (-1)^n n! S(L, n) = (-1)^L for
  L >= 1, counting the surjections onto n letters (dimension 0 has only
  the empty word).
* Under the default policy the critical collection has a closed form,
  read off the paper's rule by hand: a nondegenerate word of dimension
  n >= 1 is critical exactly when its top letter n occurs once, unless
  an n - 1 stands before that n and none after it (then it pairs down
  with the word whose n is lowered to n - 1).  The staircases sigma(r)
  are in it; the doubled-tail staircases tau(r) miss the letter 1, so
  they are critical by fiat, and they stay critical when degenerate
  words may pair; the twisted staircases sigma~(r) pair down with the
  doubled-head staircase.
* H_*(Omega S^2; Z) is the polynomial ring Z[x_1] under the Pontryagin
  product (Bott-Samelson), and the edge y = a1 gives x_1.  So the n-th
  shuffle power of y, the Eilenberg-Zilber product in the simplicial
  monoid, projected onto the critical cells, generates H_n: it is a Morse
  cycle, and it is no multiple of anything modulo the Morse boundaries.
  Lifting the generators of H_p and H_q back to simplicial cycles with the
  flow and shuffle-multiplying them generates H_{p+q} in the same way.
"""

import functools
import math
from itertools import combinations, product

import pytest

from fkmorse.chains import Chain, boundary, face_sum
from fkmorse.flow import sigma_cell, sigma_tilde_cell, tau_cell
from fkmorse.homology import (build_slice, compute_homology, morse_context,
                              smith_normal_form, stability_scan)
from fkmorse.pairing import PairingFlags, SteepnessRule, build_matching
from fkmorse.simplicial import Simplex, degeneracy, face_form

from dense import densify
from peels import column_sweep_peel


# the lower bound of a stability scan up to the case's length, if one runs
SCANS = {(5, 6): 1, (3, 6): 1, (2, 7): 1, (4, 6): 2, (0, 5): 1}


def _james_case(degree, length):
    name = str(degree) if length == 5 else f"{degree}-at-{length}"
    return pytest.param(degree, length, SCANS.get((degree, length)), id=name)


@pytest.mark.parametrize(
    "degree,length,scan_from",
    [_james_case(d, length) for length in range(1, 8) for d in range(6)])
def test_loop_space_of_the_two_sphere_has_integral_homology_z(degree, length,
                                                             scan_from):
    result = compute_homology(degree, length)
    assert (result.betti, result.torsion) == \
        ((1, []) if degree <= length else (0, []))
    if scan_from is not None:
        scan = stability_scan(degree, scan_from, length)
        assert [(r.betti, r.torsion) for r in scan.results] == \
            [(int(degree <= L), []) for L in range(scan_from, length + 1)]
        assert scan.stable_from == max(degree, scan_from)


@functools.cache
def _raw_cells(n, max_length):
    """The nondegenerate dimension-n words of length <= max_length, each
    with its position: the words that use every letter 1..n."""
    words = [w for length in range(max_length + 1)
             for w in product(range(1, n + 1), repeat=length)
             if len(set(w)) == n]
    return {w: j for j, w in enumerate(words)}


@functools.cache
def _raw_boundary_snf(n, max_length):
    """The Smith normal form of the normalized boundary from dimension n to
    n - 1 on all nondegenerate words of length <= max_length: no pairing,
    no flow and no reduction."""
    lower = _raw_cells(n - 1, max_length)
    rows = [[0] * len(lower) for _ in _raw_cells(n, max_length)]
    for w, i in _raw_cells(n, max_length).items():
        for f, v in face_sum(n, w, "normalized").items():
            rows[i][lower[f]] += v
    return smith_normal_form(rows)


@pytest.mark.parametrize("degree,length", [
    (d, length) for d in range(6) for length in range(1, 7)])
def test_raw_normalized_complex_has_the_morse_homology(degree, length):
    # words of length <= L span a subcomplex, since faces never lengthen a
    # word, and the degenerate words span an acyclic one
    rank_in = _raw_boundary_snf(degree, length).rank if degree else 0
    snf_out = _raw_boundary_snf(degree + 1, length)
    betti = len(_raw_cells(degree, length)) - rank_in - snf_out.rank
    torsion = [f for f in snf_out.invariant_factors if f not in (0, 1)]
    result = compute_homology(degree, length)
    assert (betti, torsion) == (result.betti, result.torsion) == \
        ((1, []) if degree <= length else (0, []))


@functools.cache
def _slices_at_5_7():
    """The Morse slices of degrees 1..6 at (5, 7), by degree."""
    ctx, report, _ = morse_context(5, 7)
    return {k: build_slice(ctx, report, k) for k in range(1, 7)}


def _diagonal_block(slc, length):
    """The rows and columns of cells of word length exactly length: row
    positions renumbered from 0, columns kept as sparse keys."""
    cols = {j for j, x in enumerate(slc.basis_lo) if x.length == length}
    return [{j: v for j, v in row.items() if j in cols}
            for x, row in zip(slc.basis_hi, slc.rows) if x.length == length]


def _block_factors(rows):
    """The invariant factors, one per unit of rank, through the reference
    column-sweep peel, not the homology path's own echelon."""
    peeled, residue = column_sweep_peel(rows)
    return [1] * peeled + smith_normal_form(residue).invariant_factors


@pytest.mark.parametrize("length", range(8))
def test_each_word_length_alone_is_a_sphere_of_its_own_dimension(length):
    # Faces never lengthen a word and pairs stay in one stratum, so a
    # gradient path that leaves length l never returns: the length-l
    # diagonal block of the Morse slices is the Morse boundary of the
    # quotient J_l / J_(l-1) = S^l, whose homology is Z in degree l alone.
    slices = _slices_at_5_7()
    for degree in range(6):
        cells = sum(1 for x in slices[degree + 1].basis_lo
                    if x.length == length)
        rank_in = len(_block_factors(
            _diagonal_block(slices[degree], length))) if degree else 0
        factors_out = _block_factors(_diagonal_block(slices[degree + 1],
                                                     length))
        betti = cells - rank_in - len(factors_out)
        torsion = [f for f in factors_out if f != 1]
        assert (betti, torsion) == (int(degree == length), []), \
            (degree, length)
        if degree == length:
            assert cells == [1, 1, 1, 3, 12, 60][degree]


def _surjections(length, letters):
    return sum((-1) ** k * math.comb(letters, k) * (letters - k) ** length
               for k in range(letters + 1))


@pytest.mark.parametrize("length", range(1, 7))
def test_critical_cells_of_one_length_have_euler_characteristic_sign(length):
    _, report = build_matching(length + 1, length)
    euler = sum((-1) ** n * len(report.unmatched_nondegenerate(n, length))
                for n in range(1, length + 1))
    assert euler == (-1) ** length
    assert euler == sum((-1) ** n * _surjections(length, n)
                        for n in range(1, length + 1))


def _in_critical_collection(n, word):
    """Surjective onto 1..n, one letter n, and not (an n - 1 before that n
    and none after it)."""
    if set(word) != set(range(1, n + 1)) or word.count(n) != 1:
        return False
    top = word.index(n)
    return not (n - 1 in word[:top] and n - 1 not in word[top + 1:])


@pytest.mark.parametrize("max_dim,max_length", [(5, 5), (4, 6), (3, 7)])
def test_critical_cells_are_the_words_with_a_lone_top_letter(max_dim,
                                                             max_length):
    _, report = build_matching(max_dim, max_length)
    assert [x.word for x in report.unmatched_nondegenerate(0, 0)] == [()]
    for n in range(1, max_dim):
        for length in range(max_length + 1):
            expected = [w for w in product(range(1, n + 1), repeat=length)
                        if _in_critical_collection(n, w)]
            assert [x.word for x in
                    report.unmatched_nondegenerate(n, length)] == expected


def test_named_staircases_in_and_out_of_the_critical_collection():
    rule, allow = SteepnessRule(), SteepnessRule(PairingFlags("allow"))
    for r in range(3, 12):
        assert _in_critical_collection(r, sigma_cell(r).word)
        assert rule.is_critical(sigma_cell(r))
        assert 1 not in tau_cell(r).word
        assert rule.is_critical(tau_cell(r)) and allow.is_critical(tau_cell(r))
        twisted = sigma_tilde_cell(r)
        assert not _in_critical_collection(r, twisted.word)
        assert rule.pair_down(twisted) == \
            Simplex(r - 1, (r - 1,) + tuple(range(r - 1, 0, -1)))
    # inside a built scope the report agrees
    _, report = build_matching(5, 5)
    for r in (3, 4):
        assert sigma_cell(r) in report.unmatched_nondegenerate(r, r)
        assert tau_cell(r) in report.degenerate_by_fiat(r, r)
        assert sigma_tilde_cell(r) not in report.unmatched_nondegenerate(r, r)


def _degenerate(x, indices):
    """s_{j_k} ... s_{j_1} x for the increasing indices j_1 < ... < j_k."""
    for j in indices:
        x = degeneracy(x, j)
    return x


def _shuffle(p, x, q, y):
    """The Eilenberg-Zilber product of a p-chain x and a q-chain y, both
    {word: coefficient}: the sum over (p, q)-shuffles (mu, nu) of
    (-1)^inversions (s_nu a) * (s_mu b), with * word concatenation."""
    out = {}
    for mu in combinations(range(p + q), p):
        nu = [k for k in range(p + q) if k not in mu]
        sign = (-1) ** sum(1 for i in mu for j in nu if i > j)
        for a, u in x.items():
            for b, v in y.items():
                word = _degenerate(Simplex(p, a), nu).word + \
                    _degenerate(Simplex(q, b), mu).word
                out[word] = out.get(word, 0) + sign * u * v
    return {w: c for w, c in out.items() if c}


def _shuffle_power_of_the_edge(n):
    power = {(1,): 1}
    for k in range(1, n):
        power = _shuffle(k, power, 1, {(1,): 1})
    return power


def _project(ctx, n, chain):
    """The critical words of the stable value of an n-chain {word: coef},
    by the forward projection of the gradient-path reduction, which reads
    and gives words in face_form(n + 1, .)."""
    projected = {}
    for word, c in chain.items():
        for z, u in ctx._projection(n, face_form(n + 1, word)).items():
            projected[tuple(z)] = projected.get(tuple(z), 0) + c * u
    return projected


def _certify_generator(n, chain):
    """Project an n-cycle onto the critical cells of morse_context(n, n + 1)
    and check that it generates H_n: a Morse cycle whose row raises the
    rank of the degree-(n + 1) slice by one with no factor above 1.
    Returns that slice's matrix, its rank and the row."""
    ctx, report, _ = morse_context(n, n + 1)
    lo, hi = build_slice(ctx, report, n), build_slice(ctx, report, n + 1)
    projected = _project(ctx, n, chain)
    basis = [x.word for x in hi.basis_lo]
    assert set(projected) <= set(basis)
    row = [projected.get(w, 0) for w in basis]
    assert any(row)
    # a Morse cycle: zero against the degree-n slice
    lo_matrix = densify(lo.rows, len(lo.basis_lo))
    assert all(sum(u * r[j] for u, r in zip(row, lo_matrix)) == 0
               for j in range(len(lo.basis_lo)))
    matrix = densify(hi.rows, len(hi.basis_lo))
    rank = smith_normal_form(matrix).rank
    grown = smith_normal_form(matrix + [row])
    assert grown.rank == rank + 1
    assert set(grown.invariant_factors) == {1}
    return matrix, rank, row


@pytest.mark.parametrize("n", range(1, 5))
def test_shuffle_powers_of_the_edge_generate_homology(n):
    power = _shuffle_power_of_the_edge(n)
    assert len(power) == math.factorial(n)  # one word per shuffle
    matrix, rank, row = _certify_generator(n, power)
    # twice it leaves the factor 2
    doubled = smith_normal_form(matrix + [[2 * u for u in row]])
    assert doubled.rank == rank + 1
    assert doubled.invariant_factors[-1] == 2


def _lifted_generator(n):
    """The projection of y^{nabla n} onto the critical cells, lifted back
    to a simplicial cycle: its stable value under the flow, {word: coef}."""
    ctx, _, _ = morse_context(n, n + 1)
    projected = _project(ctx, n, _shuffle_power_of_the_edge(n))
    lift, _ = ctx.stabilize(Chain(n, [(Simplex(n, w), c)
                                      for w, c in projected.items()]))
    assert boundary(lift).is_zero()
    lift = {x.word: c for x, c in lift}
    # the lift's critical part is the chain it lifts
    assert {z: u for z, u in _project(ctx, n, lift).items() if u} == \
        {z: u for z, u in projected.items() if u}
    return lift


@pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 4)
                                 for q in range(1, 5 - p)])
def test_shuffle_products_of_lifted_generators_generate_homology(p, q):
    # H_p x H_q -> H_{p+q} is x^p x^q = x^{p+q} in Z[x_1]: the inclusion
    # half of the Morse chain equivalence carries generators to cycles
    # whose product generates again
    product = _shuffle(p, _lifted_generator(p), q, _lifted_generator(q))
    _certify_generator(p + q, product)
