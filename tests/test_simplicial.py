"""Cells, face/degeneracy structure, enumeration, and cell text.

The oracle at the top recomputes generator faces and degeneracies from first
principles: a generator is an iterated-degeneracy word applied to the
1-simplex, and operators are pushed through it with the simplicial
identities alone.  The closed-form tables in the package must agree with it
everywhere; the tests below freeze that agreement before anything else.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from fkmorse.cli import parse_chain
from fkmorse.pairing import Matching, PairingFlags, Scope
from fkmorse.simplicial import (
    Generator,
    Simplex,
    StratumKey,
    degeneracy,
    enumerate_stratum,
    face,
    face_form,
    face_generator,
    face_word,
    identity,
    is_degenerate,
    simplex_text,
    sort_key,
    stratum_size,
    surjective_words,
    word_faces,
)

# --- oracle: generators as degeneracy words --------------------------------------
#
# The k-th generator in dimension n is s_0^(n-k) s_1^(k-1) applied to the
# 1-simplex.  A face d_i is pushed through the subscript word with
#   d_i s_j = s_{j-1} d_i   (i < j)
#   d_i s_j = id            (i = j or i = j+1)
#   d_i s_j = s_j d_{i-1}   (i > j+1)
# and any d reaching the 1-simplex itself hits a vertex, which collapses to
# the identity element.  A degeneracy s_j prepends a subscript.  Subscript
# words renormalize to the canonical 0…01…1 shape with
#   s_a s_b = s_b s_{a-1}   (a > b)
# after which the generator index is one plus the number of 1s.


def _subscripts(n: int, k: int) -> list[int]:
    assert 1 <= k <= n
    return [0] * (n - k) + [1] * (k - 1)


def _normalize(subs: list[int]) -> list[int]:
    out = list(subs)
    changed = True
    while changed:
        changed = False
        for p in range(len(out) - 1):
            a, b = out[p], out[p + 1]
            if a > b:
                out[p], out[p + 1] = b, a - 1
                changed = True
    return out


def _index_of(subs: list[int], n: int) -> int:
    norm = _normalize(subs)
    ones = sum(1 for v in norm if v == 1)
    zeros = sum(1 for v in norm if v == 0)
    assert zeros + ones == len(norm) == n - 1, (subs, norm, n)
    return ones + 1


def oracle_face(n: int, k: int, i: int):
    """Face of a generator by operator pushing; None when it collapses."""
    subs = _subscripts(n, k)
    d = i
    pos = 0
    while pos < len(subs):
        j = subs[pos]
        if d == j or d == j + 1:
            return _index_of(subs[:pos] + subs[pos + 1:], n - 1) \
                if n > 1 else None
        if d < j:
            subs[pos] = j - 1
        else:
            d -= 1
        pos += 1
    return None  # reached the 1-simplex: a vertex, absorbed


def oracle_degeneracy(n: int, k: int, j: int) -> int:
    return _index_of([j] + _subscripts(n, k), n + 1)


# --- generator tables against the oracle ------------------------------------------

def test_face_generator_matches_pushing_oracle():
    for n in range(1, 7):
        for k in range(1, n + 1):
            for i in range(n + 1):
                got = face_generator(Generator(n, k), i)
                want = oracle_face(n, k, i)
                if want is None:
                    assert got is None, (n, k, i, got)
                else:
                    assert got == Generator(n - 1, want), (n, k, i, got, want)


def test_degeneracy_table_matches_pushing_oracle():
    # the degeneracy of a one-letter word is its letter's table entry
    for n in range(1, 7):
        for k in range(1, n + 1):
            for j in range(n + 1):
                got = degeneracy(Simplex(n, (k,)), j)
                assert got == Simplex(n + 1, (oracle_degeneracy(n, k, j),))


def test_face_generator_display_cases():
    # first generator: drops to the first generator below, except the top face
    for n in range(2, 7):
        for i in range(n + 1):
            got = face_generator(Generator(n, 1), i)
            assert got == (None if i == n else Generator(n - 1, 1))
    # top generator: absorbed at the 0th face, else the top generator below
    for n in range(2, 7):
        for i in range(n + 1):
            got = face_generator(Generator(n, n), i)
            assert got == (None if i == 0 else Generator(n - 1, n - 1))
    # middle: index preserved for small i, dropped by one for large i
    for n in range(3, 7):
        for k in range(2, n):
            for i in range(n + 1):
                want = k if i <= n - k else k - 1
                assert face_generator(Generator(n, k), i) == \
                    Generator(n - 1, want)


def test_face_generator_dimension_one_collapses():
    assert face_generator(Generator(1, 1), 0) is None
    assert face_generator(Generator(1, 1), 1) is None


def test_degeneracy_table_display_cases():
    for n in range(1, 7):
        for k in range(1, n + 1):
            for j in range(n + 1):
                want = k if j <= n - k else k + 1
                assert degeneracy(Simplex(n, (k,)), j) == \
                    Simplex(n + 1, (want,))


def test_generator_validation():
    with pytest.raises(ValueError):
        Generator(2, 3)
    with pytest.raises(ValueError):
        Generator(2, 0)
    with pytest.raises(ValueError):
        Generator(0, 1)
    with pytest.raises(ValueError):
        face_generator(Generator(3, 2), 4)
    with pytest.raises(ValueError):
        degeneracy(Simplex(3, (2,)), -1)


# --- words and monoid structure ----------------------------------------------------

def test_simplex_validation():
    with pytest.raises(ValueError):
        Simplex(2, (3,))
    with pytest.raises(ValueError):
        Simplex(2, (0,))
    with pytest.raises(ValueError):
        Simplex(0, (1,))


def test_faces_and_degeneracies_are_letterwise():
    x = Simplex(2, (2, 1))
    assert face(x, 0) == Simplex(1, (1,))
    assert face(x, 1) == Simplex(1, (1, 1))
    assert face(x, 2) == Simplex(1, (1,))
    assert degeneracy(Simplex(1, (1,)), 0) == Simplex(2, (1,))
    assert degeneracy(Simplex(1, (1,)), 1) == Simplex(2, (2,))


def test_word_faces_are_the_pushing_oracle_letter_by_letter():
    for n in range(1, 6):
        for length in range(4):
            for word in itertools.product(range(1, n + 1), repeat=length):
                for i in range(n + 1):
                    letters = (oracle_face(n, k, i) for k in word)
                    want = tuple(k for k in letters if k is not None)
                    assert face(Simplex(n, word), i) == Simplex(n - 1, want)


def _kernel_agrees_with_face_word(n, word):
    faces = word_faces(n, word)
    assert [tuple(f) for f in faces] == \
        [face_word(n, word, i) for i in range(n + 1)], (n, word)
    assert faces == [face_form(n, face_word(n, word, i))
                     for i in range(n + 1)], (n, word)
    assert all(type(f) is (bytes if n < 256 else tuple) for f in faces)


def test_word_faces_are_face_word_at_every_index():
    # every word of every stratum with n <= 6 and L <= 5, the identity too
    for n in range(1, 7):
        for length in range(6):
            for word in itertools.product(range(1, n + 1), repeat=length):
                _kernel_agrees_with_face_word(n, word)


@pytest.mark.parametrize("n", [255, 256, 300])
def test_word_faces_are_face_word_on_either_side_of_a_byte(n):
    # words of length <= 3 on the top letters and the bottom one, in
    # dimensions where the letters fit in a byte (255) and where they do not
    letters = (1, 2, n - 2, n - 1, n)
    for length in range(4):
        for word in itertools.product(letters, repeat=length):
            _kernel_agrees_with_face_word(n, word)


def test_faces_of_identities_are_identities():
    for n in range(1, 6):
        for i in range(n + 1):
            assert face(identity(n), i) == identity(n - 1)
        for j in range(n + 1):
            assert degeneracy(identity(n), j) == identity(n + 1)


def test_face_of_dimension_zero_rejected():
    with pytest.raises(ValueError):
        face(identity(0), 0)


def _sample_words(rng: random.Random, count: int, max_dim: int,
                  max_length: int) -> list[Simplex]:
    out = []
    for _ in range(count):
        n = rng.randint(1, max_dim)
        length = rng.randint(0, max_length)
        out.append(Simplex(n, tuple(rng.randint(1, n)
                                    for _ in range(length))))
    return out


def _all_words(max_dim: int, max_length: int):
    for n in range(max_dim + 1):
        for length in range(max_length + 1 if n else 1):
            yield from enumerate_stratum(n, length)


def test_simplicial_identities_exhaustive_small():
    for x in _all_words(4, 3):
        n = x.dim
        if n >= 2:
            for j in range(n + 1):
                for i in range(j):
                    assert face(face(x, j), i) == face(face(x, i), j - 1)
        for j in range(n + 1):
            s = degeneracy(x, j)
            assert face(s, j) == x
            assert face(s, j + 1) == x
        for j in range(n + 1):
            for i in range(j + 1):
                assert degeneracy(degeneracy(x, j), i) == \
                    degeneracy(degeneracy(x, i), j + 1)


def test_simplicial_identities_random_large():
    rng = random.Random(20260819)
    for x in _sample_words(rng, 300, 7, 7):
        n = x.dim
        i = rng.randint(0, n)
        j = rng.randint(0, n)
        if i < j and n >= 2:
            assert face(face(x, j), i) == face(face(x, i), j - 1)
        assert face(degeneracy(x, j), j) == x
        assert face(degeneracy(x, j), j + 1) == x
        lo, hi = min(i, j), max(i, j)
        assert degeneracy(degeneracy(x, hi), lo) == \
            degeneracy(degeneracy(x, lo), hi + 1)


def test_mixed_face_degeneracy_identities():
    for x in _all_words(3, 3):
        n = x.dim
        for j in range(n + 1):
            s = degeneracy(x, j)
            for i in range(n + 2):
                if i < j:
                    assert face(s, i) == degeneracy(face(x, i), j - 1)
                elif i > j + 1:
                    assert face(s, i) == degeneracy(face(x, i - 1), j)


def test_word_length_monotone_under_operators():
    rng = random.Random(7)
    for x in _sample_words(rng, 200, 6, 6):
        for i in range(x.dim + 1):
            assert len(face(x, i).word) <= len(x.word)
        for j in range(x.dim + 1):
            assert len(degeneracy(x, j).word) == len(x.word)


# --- degeneracy detection -----------------------------------------------------------

def _literal_degenerate(x: Simplex) -> bool:
    return any(degeneracy(face(x, j), j) == x for j in range(x.dim))


def test_is_degenerate_matches_literal_scan_exhaustively():
    for x in _all_words(5, 4):
        assert is_degenerate(x) == _literal_degenerate(x), x


def test_is_degenerate_matches_literal_scan_random():
    rng = random.Random(991)
    for x in _sample_words(rng, 400, 7, 7):
        assert is_degenerate(x) == _literal_degenerate(x), x


def test_a_missing_letter_locates_the_degeneracy():
    # the rule stated in the module docstring: a word missing the letter
    # dim - j is s_j of its face d_j, and only then
    for x in _all_words(4, 4):
        for j in range(x.dim):
            missing = (x.dim - j) not in x.word
            assert (degeneracy(face(x, j), j) == x) == missing, (x, j)


def test_known_degeneracy_facts():
    # identities are degenerate above dimension zero
    assert not is_degenerate(identity(0))
    for n in range(1, 6):
        assert is_degenerate(identity(n))
        assert degeneracy(identity(n - 1), 0) == identity(n)
    # generators above dimension one are degenerate
    assert not is_degenerate(Simplex(1, (1,)))
    for n in range(2, 7):
        for k in range(1, n + 1):
            assert is_degenerate(Simplex(n, (k,)))
    # words missing a letter are degenerate; full-alphabet words are not
    assert is_degenerate(Simplex(3, (3, 2, 2)))
    assert degeneracy(Simplex(2, (2, 1, 1)), 2) == Simplex(3, (3, 2, 2))
    assert not is_degenerate(Simplex(3, (3, 2, 1)))
    assert not is_degenerate(Simplex(2, (1, 2)))
    assert is_degenerate(Simplex(2, (1, 1)))


def test_nondegenerate_words_use_the_full_alphabet():
    # independent restatement of the detection rule, gated by the scan above
    for x in _all_words(5, 5):
        if x.dim >= 1:
            full = set(x.word) == set(range(1, x.dim + 1))
            assert is_degenerate(x) == (not full)


def test_faces_never_mix_degenerate_and_nondegenerate_words():
    # The coface tables of the flow rest on this: every face of a
    # surjective word is surjective, and a degenerate word has net
    # incidence 0 on every nondegenerate face (simplicial identities).
    degenerate = 0
    for n in range(1, 6):
        for length in range(7):
            for word in itertools.product(range(1, n + 1), repeat=length):
                net: dict[tuple[int, ...], int] = {}
                for i in range(n + 1):
                    f = face_word(n, word, i)
                    net[f] = net.get(f, 0) + (-1) ** i
                full = set(word) == set(range(1, n + 1))
                degenerate += not full
                for f, v in net.items():
                    face_full = set(f) == set(range(1, n))
                    assert face_full or not full, (n, word, f)
                    assert full or not face_full or v == 0, (n, word, f)
    assert degenerate == 21_623


# --- enumeration and ordering --------------------------------------------------------

def test_stratum_examples():
    assert list(enumerate_stratum(1, 3)) == [Simplex(1, (1, 1, 1))]
    assert list(enumerate_stratum(2, 2)) == [
        Simplex(2, (1, 1)), Simplex(2, (1, 2)),
        Simplex(2, (2, 1)), Simplex(2, (2, 2))]
    assert list(enumerate_stratum(3, 0)) == [identity(3)]
    assert list(enumerate_stratum(0, 0)) == [identity(0)]


def test_stratum_counts_and_order():
    for n in range(1, 5):
        for length in range(4):
            cells = list(enumerate_stratum(n, length))
            assert len(cells) == stratum_size(n, length) == n ** length
            words = [c.word for c in cells]
            assert words == sorted(words)


def _surjection_count(length, letters):
    # letters! * S(length, letters), by the Stirling recurrence
    # S(L, n) = n * S(L - 1, n) + S(L - 1, n - 1)
    row = [1] + [0] * letters  # S(0, n)
    for _ in range(length):
        row = [0] + [n * row[n] + row[n - 1] for n in range(1, letters + 1)]
    return math.factorial(letters) * row[letters]


def _recursive_surjective_words(dim, length):
    """Reference route for surjective_words: a prefix is extended, one
    nested generator per letter, only while the positions left can still
    hold the letters it misses, and once it holds all of them every tail
    is allowed."""
    if dim == 0:
        if length == 0:
            yield ()
        return
    letters = range(1, dim + 1)

    def extend(prefix, used):
        free = length - len(prefix)
        if len(used) == dim:
            for tail in itertools.product(letters, repeat=free):
                yield prefix + tail
            return
        for g in letters:
            grown = used | {g}
            if dim - len(grown) <= free - 1:
                yield from extend(prefix + (g,), grown)

    if length >= dim:
        yield from extend((), frozenset())


def test_surjective_words_are_the_nondegenerate_words_in_order():
    for n in range(7):
        for length in range(8):
            expected = [x.word for x in enumerate_stratum(n, length)
                        if not is_degenerate(x)]
            assert list(surjective_words(n, length)) == expected
            assert list(_recursive_surjective_words(n, length)) == expected
            assert len(expected) == _surjection_count(length, n)
    # larger strata, against the recursive walk only: long words of few
    # letters, where most words come from tails, and dimension 7
    for n, length in [(2, 16), (3, 11), (4, 9), (6, 7), (7, 8)]:
        expected = list(_recursive_surjective_words(n, length))
        assert list(surjective_words(n, length)) == expected
        assert len(expected) == _surjection_count(length, n)
    assert list(surjective_words(0, 0)) == [()]
    assert list(surjective_words(0, 2)) == []
    assert list(surjective_words(3, 2)) == []
    assert list(surjective_words(2, 3)) == [
        (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 1, 2), (2, 2, 1)]


def test_lex_order_on_equal_length():
    assert sort_key(Simplex(2, (1, 2))) < sort_key(Simplex(2, (2, 1)))
    assert not sort_key(Simplex(2, (2, 1))) < sort_key(Simplex(2, (1, 2)))
    assert sort_key(Simplex(2, (2,))) < sort_key(Simplex(2, (1, 1)))


def test_stratum_key_validation():
    StratumKey(0, 0)
    StratumKey(3, 5)
    with pytest.raises(ValueError):
        StratumKey(0, 1)
    with pytest.raises(ValueError):
        StratumKey(-1, 0)
    with pytest.raises(ValueError):
        StratumKey(1, -2)


# --- text ----------------------------------------------------------------------------

def test_simplex_text_round_trip():
    # the command line's word syntax reads simplex_text back
    x = Simplex(3, (3, 2, 2))
    assert simplex_text(x) == "a3.a2.a2"
    assert simplex_text(identity(4)) == "e"
    assert simplex_text(Simplex(1, (1, 1))) == "a1.a1"


def test_simplex_json_round_trip_random():
    # cells are written to JSON only inside a matching export, so each random
    # word rides there as the lower cell of a pair with its degeneracy s_0
    rng = random.Random(5)
    for x in _sample_words(rng, 100, 6, 6):
        pair = (x, degeneracy(x, 0))
        m = Matching([pair], Scope(x.dim + 1, max(x.length, 1)), PairingFlags())
        assert Matching.from_json(m.to_json()).pairs == [pair]
        assert parse_chain(simplex_text(x), x.dim).support() == [x]
