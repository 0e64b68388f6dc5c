"""Integer chains, the boundary operator, and incidence numbers.

Fixed values below were derived by listing faces by hand from the letterwise
face tables (themselves gated against the operator-pushing oracle in
test_simplicial) before the chain layer existed; the tests freeze them.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest

from fkmorse.chains import (Chain, boundary, face_sum, incidence, inner,
                            signed_faces)
from fkmorse.flow import sigma_cell, sigma_tilde_cell, tau_cell, y_power
from fkmorse.simplicial import (Simplex, enumerate_stratum, face, face_form,
                                face_word, identity, is_degenerate,
                                is_degenerate_word)


def _chain(dim, *terms):
    total = Chain.zero(dim)
    for coef, word in terms:
        total = total + coef * Chain.unit(Simplex(dim, word))
    return total


# --- algebra ------------------------------------------------------------------------

def test_chain_algebra_basics():
    a = Chain.unit(Simplex(2, (1, 2)))
    b = Chain.unit(Simplex(2, (2, 1)))
    c = 2 * a - 3 * b
    assert c.coefficient(Simplex(2, (1, 2))) == 2
    assert c.coefficient(Simplex(2, (2, 1))) == -3
    assert c.coefficient(Simplex(2, (2, 2))) == 0
    # a cell of another dimension is not a term, even with a term's word
    assert c.coefficient(Simplex(3, (1, 2))) == 0
    assert (c - c).is_zero()
    assert -(c - c) == Chain.zero(2)
    assert 0 * a == Chain.zero(2)
    assert len(c) == 2


def test_chain_terms_cancel_and_sort():
    a = Chain.unit(Simplex(2, (2, 1)))
    b = Chain.unit(Simplex(2, (1,)))
    c = a + b - a
    assert list(c.items()) == [(Simplex(2, (1,)), 1)]
    mixed = _chain(2, (1, (2, 2)), (1, (1,)), (1, (1, 1, 2)))
    cells = [cell for cell, _ in mixed.items()]
    assert cells == [Simplex(2, (1,)), Simplex(2, (2, 2)),
                     Simplex(2, (1, 1, 2))]


def test_chain_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        Chain.unit(Simplex(1, (1,))) + Chain.unit(Simplex(2, (1,)))
    # the same words in two dimensions are two different chains
    assert Chain.unit(Simplex(2, (1,))) != Chain.unit(Simplex(3, (1,)))
    assert _chain(2, (1, (1, 2)), (-1, ())) != _chain(3, (1, (1, 2)), (-1, ()))
    with pytest.raises(ValueError):
        inner(Chain.unit(Simplex(2, (1,))), Simplex(1, (1,)))


@pytest.mark.parametrize("coef", [1.5, 1.0, "1", None])
def test_chain_refuses_a_coefficient_that_is_not_an_integer(coef):
    # refused rather than truncated: int(1.5) would be a silent 1
    with pytest.raises(TypeError, match="is not an integer"):
        Chain(2, [(Simplex(2, (1, 2)), coef)])


def test_chain_str():
    assert str(Chain.zero(3)) == "0"
    c = _chain(2, (1, (1, 2)), (-2, (2, 1)))
    assert str(c) == "a1.a2 - 2*a2.a1"


# --- boundary -----------------------------------------------------------------------

def test_boundary_of_dimension_one_vanishes():
    # both vertices of any 1-simplex collapse to the basepoint
    for length in range(4):
        assert boundary(Chain.unit(Simplex(1, (1,) * length))).is_zero()


def test_boundary_of_dimension_zero_rejected():
    with pytest.raises(ValueError):
        boundary(Chain.unit(identity(0)))


def test_boundary_sigma_2():
    d = boundary(Chain.unit(sigma_cell(2)))
    assert d == _chain(1, (2, (1,)), (-1, (1, 1)))
    assert inner(d, y_power(1)) == 2


def test_boundary_tau_3():
    d = boundary(Chain.unit(tau_cell(3)))
    assert d == _chain(2, (1, (2, 2)), (-1, (2, 2, 2)))


def test_faces_of_sigma_6_frozen_list():
    s6 = sigma_cell(6)
    faces = [face(s6, i) for i in range(7)]
    assert faces == [
        Simplex(5, (5, 4, 3, 2, 1)),
        Simplex(5, (5, 5, 4, 3, 2, 1)),
        Simplex(5, (5, 4, 4, 3, 2, 1)),
        Simplex(5, (5, 4, 3, 3, 2, 1)),
        Simplex(5, (5, 4, 3, 2, 2, 1)),
        Simplex(5, (5, 4, 3, 2, 1, 1)),
        Simplex(5, (5, 4, 3, 2, 1)),
    ]


def test_boundary_sigma_6_frozen_chain():
    d = boundary(Chain.unit(sigma_cell(6)))
    assert d == _chain(
        5,
        (2, (5, 4, 3, 2, 1)),
        (-1, (5, 5, 4, 3, 2, 1)),
        (1, (5, 4, 4, 3, 2, 1)),
        (-1, (5, 4, 3, 3, 2, 1)),
        (1, (5, 4, 3, 2, 2, 1)),
        (-1, (5, 4, 3, 2, 1, 1)),
    )


def test_boundary_squared_exhaustive_small():
    for mode in ("unnormalized", "normalized"):
        for n in range(2, 5):
            for length in range(5):
                for x in enumerate_stratum(n, length):
                    d = boundary(Chain.unit(x), mode)
                    assert boundary(d, mode).is_zero(), (x, mode)


def test_boundary_squared_random():
    rng = random.Random(20260819)
    for mode in ("unnormalized", "normalized"):
        for _ in range(200):
            n = rng.randint(2, 7)
            length = rng.randint(0, 7)
            x = Simplex(n, tuple(rng.randint(1, n) for _ in range(length)))
            d = boundary(Chain.unit(x), mode)
            assert boundary(d, mode).is_zero(), (x, mode)


def test_normalized_mode_drops_degenerate_faces():
    d = boundary(Chain.unit(tau_cell(3)), "normalized")
    assert d.is_zero()  # both surviving faces are degenerate words
    d2 = boundary(Chain.unit(sigma_cell(2)), "normalized")
    assert d2 == _chain(1, (2, (1,)), (-1, (1, 1)))


def test_boundary_linear():
    c = _chain(3, (2, (3, 2, 1)), (-1, (3, 2, 2)))
    assert boundary(c) == 2 * boundary(Chain.unit(Simplex(3, (3, 2, 1)))) \
        - boundary(Chain.unit(Simplex(3, (3, 2, 2))))


def _faces_one_by_one(c, mode):
    """The boundary of c as {face cell: coefficient}, from face and
    is_degenerate one face at a time, without face_sum or Chain sums."""
    out = {}
    for x, coef in c.items():
        for i in range(x.dim + 1):
            y = face(x, i)
            if mode == "unnormalized" or not is_degenerate(y):
                out[y] = out.get(y, 0) + (-coef if i % 2 else coef)
    return {y: v for y, v in out.items() if v}


@pytest.mark.parametrize("mode", ["unnormalized", "normalized"])
def test_face_sum_is_the_boundary_of_one_word(mode):
    # every word of dimension 1..4 and length <= 3, some faces of which
    # cancel or are degenerate
    for dim in range(1, 5):
        for length in range(4):
            for x in enumerate_stratum(dim, length):
                expected = _faces_one_by_one(Chain.unit(x), mode)
                got = face_sum(dim, x.word, mode)
                assert got == {y.word: v for y, v in expected.items()}, x
                assert dict(boundary(Chain.unit(x), mode).items()) == \
                    expected, x


def _reference_face_sum(dim, word, mode):
    """face_sum by face_word one index at a time, the route before faces
    came from translation tables."""
    out = {}
    for i in range(dim + 1):
        f = face_word(dim, word, i)
        if mode == "normalized" and is_degenerate_word(dim - 1, f):
            continue
        out[f] = out.get(f, 0) + (-1 if i % 2 else 1)
    return {f: v for f, v in out.items() if v}


@pytest.mark.parametrize("mode", ["unnormalized", "normalized"])
def test_face_sum_is_the_reference_face_sum(mode):
    # every word with n <= 6 and L <= 5, and words on the top letters where
    # they fit in a byte (255) and where they do not (256, 300)
    words = [(n, w) for n in range(1, 7) for length in range(6)
             for w in itertools.product(range(1, n + 1), repeat=length)]
    words += [(n, w) for n in (255, 256, 300) for length in range(4)
              for w in itertools.product((1, 2, n - 2, n - 1, n),
                                         repeat=length)]
    for n, w in words:  # the same terms, in the same order
        reference = list(_reference_face_sum(n, w, mode).items())
        assert list(face_sum(n, w, mode).items()) == reference, (n, w)
        # and so are the signed faces, whose faces are in face_form(n, .)
        # whether the word is given as a word or in that form
        form = type(face_form(n, w))
        for given in (w, face_form(n, w)):
            signed = signed_faces(n, given, mode)
            assert all(type(f) is form for f in signed), (n, w)
            assert [(tuple(f), v) for f, v in signed.items()] == \
                reference, (n, w)


@pytest.mark.parametrize("mode", ["unnormalized", "normalized"])
def test_boundary_of_random_chains_is_the_face_by_face_sum(mode):
    # several terms, some on one word, so that terms of different words
    # meet on a common face and cancel or add
    rng = random.Random(1998)
    for _ in range(200):
        n = rng.randint(1, 6)
        words = [tuple(rng.randint(1, n) for _ in range(rng.randint(0, 5)))
                 for _ in range(rng.randint(1, 4))]
        words += rng.choices(words, k=2)
        c = Chain(n, [(Simplex(n, w), rng.choice((-3, -2, -1, 1, 2, 3)))
                      for w in words])
        assert dict(boundary(c, mode).items()) == _faces_one_by_one(c, mode)


# --- incidence ----------------------------------------------------------------------

def test_incidence_requires_adjacent_dimensions():
    with pytest.raises(ValueError):
        incidence(sigma_cell(3), sigma_cell(1))


def test_incidence_sigma_parity():
    # multiplicity of sigma_r inside the boundary of sigma_{r+1}: the two
    # outer faces coincide, so the entry is 2 when r is odd and 0 when even
    values = [incidence(sigma_cell(r + 1), sigma_cell(r)) for r in range(1, 6)]
    assert values == [2, 0, 2, 0, 2]


def test_incidence_of_matched_pairs_is_unit():
    assert incidence(Simplex(2, (1, 2)), Simplex(1, (1, 1))) == -1
    for r in range(3, 7):
        lower = Simplex(r - 1, (r - 1,) + tuple(range(r - 1, 0, -1)))
        assert incidence(sigma_tilde_cell(r), lower) == -1


def test_inner_reads_coefficients():
    d = boundary(Chain.unit(sigma_cell(2)))
    assert inner(d, Simplex(1, (1,))) == 2
    assert inner(d, Simplex(1, (1, 1))) == -1
    assert inner(d, Simplex(1, (1, 1, 1))) == 0


# --- serialization -------------------------------------------------------------------

def test_chain_json_round_trip_and_shape():
    c = _chain(2, (1, (1, 2)), (-2, (2, 1)), (3, (2, 2, 2)))
    blob = c.to_json()
    data = json.loads(blob)
    assert data["dim"] == 2
    assert data["terms"] == [
        {"word": [1, 2], "coef": 1},
        {"word": [2, 1], "coef": -2},
        {"word": [2, 2, 2], "coef": 3},
    ]
    assert blob == ('{"dim":2,"terms":[{"word":[1,2],"coef":1},'
                    '{"word":[2,1],"coef":-2},{"word":[2,2,2],"coef":3}]}')
    assert Chain.zero(4).to_json() == '{"dim":4,"terms":[]}'


def test_chain_json_round_trip_random():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 5)
        c = Chain.zero(n)
        for _ in range(rng.randint(0, 6)):
            length = rng.randint(0, 5)
            word = tuple(rng.randint(1, n) for _ in range(length))
            c = c + rng.randint(-4, 4) * Chain.unit(Simplex(n, word))
        # the export lists every term, sorted, with its word and coefficient
        assert json.loads(c.to_json()) == {
            "dim": n,
            "terms": [{"word": list(x.word), "coef": v} for x, v in c.items()]}
