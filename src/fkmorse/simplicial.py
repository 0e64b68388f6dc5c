"""The free simplicial monoid on the minimal simplicial circle.

The circle has one vertex and one nondegenerate edge, so in dimension n the
monoid of n-simplices is free on n generators a1 < a2 < ... < an, where ak
is the edge pushed up by degeneracies: ak = s_0^{n-k} s_1^{k-1} (edge).
A simplex is a word in these generators, encoded as a tuple of indices in
1..n; the empty word is the monoid identity of its dimension.

Faces and degeneracies are monoid homomorphisms, so they act letterwise.
On letters they follow closed-form tables derived from the simplicial
identities; the test suite re-derives both tables from an independent
rewriting of degeneracy subscript strings and cross-checks them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Iterator


@dataclass(frozen=True, slots=True)
class Generator:
    """Letter a_index in dimension dim; valid for 1 <= index <= dim."""

    dim: int
    index: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"generator dimension must be >= 1, got {self.dim}")
        if not 1 <= self.index <= self.dim:
            raise ValueError(
                f"generator index {self.index} out of range 1..{self.dim}")

    def __str__(self) -> str:
        return f"a{self.index}"


@dataclass(frozen=True, slots=True)
class Simplex:
    """A word of generator indices in a fixed dimension.

    word is a tuple of ints in 1..dim, left to right.  The empty tuple is
    the identity element of dimension dim.  Dimension 0 admits only the
    identity: there are no generators below dimension 1.
    """

    dim: int
    word: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError(f"dimension must be >= 0, got {self.dim}")
        for k in self.word:
            if not isinstance(k, int) or not 1 <= k <= self.dim:
                raise ValueError(
                    f"letter {k!r} invalid in dimension {self.dim}")

    @property
    def length(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return simplex_text(self)


def identity(dim: int) -> Simplex:
    return Simplex(dim, ())


def generator_simplex(dim: int, index: int) -> Simplex:
    Generator(dim, index)  # validate range
    return Simplex(dim, (index,))


# --- faces and degeneracies -------------------------------------------------

def _degeneracy_letter(n: int, k: int, j: int) -> int:
    return k if j <= n - k else k + 1


def face_generator(g: Generator, i: int) -> Generator | None:
    """d_i of a letter; None when the letter is sent to the identity."""
    if not 0 <= i <= g.dim:
        raise ValueError(f"face index {i} out of range 0..{g.dim}")
    word = face_word(g.dim, (g.index,), i)
    return Generator(g.dim - 1, word[0]) if word else None


def degeneracy_generator(g: Generator, j: int) -> Generator:
    if not 0 <= j <= g.dim:
        raise ValueError(f"degeneracy index {j} out of range 0..{g.dim}")
    return Generator(g.dim + 1, _degeneracy_letter(g.dim, g.index, j))


def face(x: Simplex, i: int) -> Simplex:
    """d_i applied letterwise; letters sent to the identity drop out."""
    if x.dim == 0:
        raise ValueError("dimension-0 simplices have no faces")
    if not 0 <= i <= x.dim:
        raise ValueError(f"face index {i} out of range 0..{x.dim}")
    return Simplex(x.dim - 1, face_word(x.dim, x.word, i))


def face_word(dim: int, word: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The word of d_i on a dimension-dim word, for 0 <= i <= dim >= 1.

    Letters above dim - i drop by one; d_0 sends the top letter, and d_dim
    the bottom one, to the identity (in dimension 1 both faces send the
    edge to the basepoint).  The caller checks the arguments.
    """
    if i == 0:
        out = [k for k in word if k != dim]
    elif i == dim:
        out = [k - 1 for k in word if k != 1]
    else:
        m = dim - i
        out = [k if k <= m else k - 1 for k in word]
    # built through a list, so the tuple is allocated at its exact size
    return tuple(out)


def degeneracy(x: Simplex, j: int) -> Simplex:
    if not 0 <= j <= x.dim:
        raise ValueError(f"degeneracy index {j} out of range 0..{x.dim}")
    n = x.dim
    return Simplex(n + 1, tuple(_degeneracy_letter(n, k, j) for k in x.word))


# --- degeneracy detection ---------------------------------------------------

def degeneracy_witness(x: Simplex) -> tuple[int, Simplex] | None:
    """Least j with s_j(d_j(x)) == x, together with that preimage d_j(x).

    Every positive-dimensional word whose letters do not exhaust 1..dim is
    degenerate, and the least missing value of dim - j locates the witness;
    words using all dim letters are nondegenerate.  The identity in
    dimension n >= 1 is s_0 of the identity below it.  The test suite checks
    this rule against a literal scan of all j.
    """
    n, letters = x.dim, set(x.word)
    if n == 0:
        return None
    for j in range(n):
        if (n - j) not in letters:
            return j, face(x, j)
    return None


def is_degenerate(x: Simplex) -> bool:
    return is_degenerate_word(x.dim, x.word)


def is_degenerate_word(dim: int, word: tuple[int, ...]) -> bool:
    """Whether the dimension-dim word is degenerate (see degeneracy_witness).

    Letters lie in 1..dim, so a word is nondegenerate iff it uses all dim
    of them; in dimension 0 only the identity exists, and it is not.
    """
    return len(set(word)) < dim


# --- ordering and enumeration ------------------------------------------------

def sort_key(x: Simplex) -> tuple[int, tuple[int, ...]]:
    """Word length first, then left-to-right lexicographic on letters."""
    return (len(x.word), x.word)


def lex_less(a: Simplex, b: Simplex) -> bool:
    if a.dim != b.dim:
        raise ValueError("simplices of different dimensions are not comparable")
    return sort_key(a) < sort_key(b)


@dataclass(frozen=True, slots=True)
class StratumKey:
    """Cells of one dimension and one word length."""

    dim: int
    length: int

    def __post_init__(self) -> None:
        if self.dim < 0 or self.length < 0:
            raise ValueError("stratum indices must be >= 0")
        if self.dim == 0 and self.length > 0:
            raise ValueError("dimension 0 has no letters")


def stratum_size(dim: int, length: int) -> int:
    if dim == 0:
        return 1 if length == 0 else 0
    return dim ** length


def enumerate_stratum(dim: int, length: int) -> Iterator[Simplex]:
    """All words of the given length in sorted (lexicographic) order."""
    for word in stratum_words(dim, length):
        yield Simplex(dim, word)


def stratum_words(dim: int, length: int) -> Iterator[tuple[int, ...]]:
    """The words of enumerate_stratum as plain tuples, in the same order."""
    if dim == 0:
        if length == 0:
            yield ()
        return
    yield from product(range(1, dim + 1), repeat=length)


def surjective_words(dim: int, length: int) -> Iterator[tuple[int, ...]]:
    """The nondegenerate words of stratum (dim, length), in lex order.

    These are the words that use every letter 1..dim (see
    degeneracy_witness): dim! * S(length, dim) of them, against dim**length
    in the stratum.  A prefix is extended only while the positions left can
    still hold the letters it misses, and once it holds all of them every
    tail is allowed.
    """
    if dim == 0:
        if length == 0:
            yield ()
        return
    letters = range(1, dim + 1)

    def extend(prefix: tuple[int, ...], used: frozenset[int]) \
            -> Iterator[tuple[int, ...]]:
        free = length - len(prefix)
        if len(used) == dim:
            for tail in product(letters, repeat=free):
                yield prefix + tail
            return
        for g in letters:
            grown = used | {g}
            if dim - len(grown) <= free - 1:
                yield from extend(prefix + (g,), grown)

    if length >= dim:
        yield from extend((), frozenset())


def enumerate_cells(dim: int, max_length: int) -> Iterator[Simplex]:
    """All words of length 0..max_length, shortest first, lex within length."""
    top = 0 if dim == 0 else max_length
    for length in range(top + 1):
        yield from enumerate_stratum(dim, length)


# --- text and JSON round-trips ----------------------------------------------

def simplex_text(x: Simplex) -> str:
    if not x.word:
        return "e"
    return ".".join(f"a{k}" for k in x.word)


def parse_simplex(text: str, dim: int) -> Simplex:
    """Inverse of simplex_text for a known dimension."""
    text = text.strip()
    if text == "e":
        return identity(dim)
    letters = []
    for part in text.split("."):
        if not part.startswith("a"):
            raise ValueError(f"bad generator {part!r} in {text!r}")
        try:
            letters.append(int(part[1:]))
        except ValueError:
            raise ValueError(f"bad generator {part!r} in {text!r}") from None
    return Simplex(dim, tuple(letters))


def simplex_to_json(x: Simplex) -> str:
    return json.dumps({"dim": x.dim, "word": list(x.word)},
                      separators=(",", ":"))


def simplex_from_json(text: str) -> Simplex:
    data = json.loads(text)
    return Simplex(int(data["dim"]), tuple(int(k) for k in data["word"]))
