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

A word is degenerate exactly when it misses a letter of 1..dim: a word
missing the letter dim - j is s_j of its face d_j, and a word using every
letter is in the image of no degeneracy.  The identity of dimension 0 is
the only 0-simplex and is nondegenerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, islice, product
from math import comb
from typing import Iterable, Iterator

from .errors import TruncationError


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


Word = tuple[int, ...]  # generator indices, as in Simplex.word


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


# --- faces and degeneracies -------------------------------------------------

def face_generator(g: Generator, i: int) -> Generator | None:
    """d_i of a letter; None when the letter is sent to the identity."""
    if not 0 <= i <= g.dim:
        raise ValueError(f"face index {i} out of range 0..{g.dim}")
    word = face_word(g.dim, (g.index,), i)
    return Generator(g.dim - 1, word[0]) if word else None


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


def face_form(dim: int, word: Word) -> bytes | Word:
    """word as word_faces(dim, .) takes and gives words: bytes while
    dim < 256, one letter a byte, and the tuple itself from 256 on."""
    return bytes(word) if dim < 256 else word


@cache
def _face_tables(dim: int) -> tuple[tuple[bytes, bytes], ...]:
    """The bytes.translate arguments (table, deleted letters) of d_0, ...,
    d_dim, as in face_word: d_i lowers every letter above dim - i."""
    low = [bytes(range(m + 1)) + bytes(range(m, 255)) for m in range(dim + 1)]
    deleted = [bytes([dim])] + [b""] * (dim - 1) + [b"\x01"]  # top, bottom
    return tuple(zip(reversed(low), deleted))


def word_faces(dim: int, word: bytes | Word) -> list[bytes] | list[Word]:
    """face_word(dim, word, i) for i = 0..dim, each in face_form(dim, .);
    word may be in that form too."""
    packed = face_form(dim, word)
    if type(packed) is bytes:
        return [packed.translate(t, d) for t, d in _face_tables(dim)]
    return [face_word(dim, word, i) for i in range(dim + 1)]


def degeneracy(x: Simplex, j: int) -> Simplex:
    if not 0 <= j <= x.dim:
        raise ValueError(f"degeneracy index {j} out of range 0..{x.dim}")
    n = x.dim
    return Simplex(n + 1, tuple(k if j <= n - k else k + 1 for k in x.word))


# --- degeneracy detection ---------------------------------------------------

def is_degenerate(x: Simplex) -> bool:
    return is_degenerate_word(x.dim, x.word)


def is_degenerate_word(dim: int, word: tuple[int, ...]) -> bool:
    """Whether the dimension-dim word is degenerate.

    Letters lie in 1..dim.  A word missing the letter dim - j is s_j(d_j)
    of itself, so it is degenerate; a word using all dim letters is not.
    In dimension 0 only the identity exists, and it is not degenerate.
    The test suite checks this rule against a literal scan of all s_j d_j.
    """
    return len(set(word)) < dim


# --- ordering and enumeration ------------------------------------------------

def sort_key(x: Simplex) -> tuple[int, tuple[int, ...]]:
    """Word length first, then left-to-right lexicographic on letters."""
    return (len(x.word), x.word)


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
    return dim ** length  # dimension 0 holds the identity only: 0 ** 0 = 1


def degenerate_size(dim: int, length: int) -> int:
    """stratum_size less the dim! * S(length, dim) surjective words, of
    which there are none when length < dim."""
    if length < dim:
        return stratum_size(dim, length)
    return sum((-1) ** (k + 1) * comb(dim, k) * (dim - k) ** length
               for k in range(1, dim + 1))


# The most cells of one stratum that the package lists or walks; a larger
# stratum is refused rather than exhausting memory.
MAX_STRATUM_CELLS = 2_000_000


def check_stratum_size(dim: int, length: int) -> None:
    """Raise TruncationError when stratum (dim, length) holds more than
    MAX_STRATUM_CELLS cells."""
    size = stratum_size(dim, length)
    if size > MAX_STRATUM_CELLS:
        raise TruncationError(
            f"stratum (dim {dim}, length {length}) holds {size} cells, "
            f"over the limit of {MAX_STRATUM_CELLS}", dim=dim, length=length)


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
    is_degenerate_word): dim! * S(length, dim) of them, against dim**length
    in the stratum.  The prefixes are grown one level at a time, each with
    its missing-letter mask, and one is dropped when it misses more letters
    than positions are left.  A prefix that holds every letter stops
    growing and keeps its place; at the end each is extended by every tail.
    """
    if length < dim:  # dimension 0 holds the identity, which misses none
        return
    letters = range(1, dim + 1)
    marks = [(g, 1 << g) for g in letters]
    level = [((), (2 << dim) - 2)]  # (prefix, missing mask) in lex order
    for free in reversed(range(length)):  # the positions left once grown
        grown = []
        for item in level:
            prefix, missing = item
            if not missing:
                grown.append(item)
                continue
            spare = missing.bit_count() <= free  # else only missing letters
            grown += [(prefix + (g,), missing & ~b) for g, b in marks
                      if spare or missing & b]
        level = grown
    for prefix, _ in level:
        if len(prefix) == length:
            yield prefix
        else:
            yield from map(prefix.__add__,
                           product(letters, repeat=length - len(prefix)))


def word_rank(dim: int, word: tuple[int, ...]) -> int:
    """The position of word in stratum_words(dim, len(word))."""
    rank = 0
    for k in word:
        rank = rank * dim + k - 1
    return rank


# --- stratum tables ---------------------------------------------------------
#
# The rank-r word of length k + 1 is the rank-(r // dim) word with the letter
# r % dim + 1 appended, so a table over a stratum in rank order is the table
# one letter shorter, each entry extended by every letter in turn.

def prefix_walk(dim: int, length: int, masks: bool) \
        -> tuple[list[str], list[int] | None]:
    """The text of each word of stratum (dim, length) in rank order, empty
    for the identity so that a letter can be appended, and if asked its
    missing-letter mask: bit k is set when the letter k of 1..dim does not
    occur, so a word is degenerate exactly when its mask is nonzero.

    Ask for masks only at a small dimension, as for the words, prefixes
    and tails of a stratum that can hold nondegenerate words: a stratum
    with length >= dim within MAX_STRATUM_CELLS has dim <= 7, while a
    shorter one, all degenerate, may have a dimension in the millions.
    """
    texts = [""]
    if length:
        texts = [f"a{k}" for k in range(1, dim + 1)]
        if length > 1:
            dotted = ["." + t for t in texts]
            for _ in range(length - 1):
                texts = [t + s for t in texts for s in dotted]
    if not masks:
        return texts, None
    out = [(2 << dim) - 2]  # the identity misses every letter
    keep = [~(1 << k) for k in range(1, dim + 1)]
    for _ in range(length):
        out = [m & c for m in out for c in keep]
    return texts, out


# The most words of the tails of split_walk, unless one letter is more.
_TAIL_WORDS = 1 << 9


def _tail_length(dim: int, length: int) -> int:
    """The length of split_walk's tails: the longest up to length, and of
    at least one letter, whose words number at most _TAIL_WORDS."""
    cut = min(length, 1)
    while cut < length and dim ** (cut + 1) <= _TAIL_WORDS:
        cut += 1
    return cut


def split_walk(dim: int, length: int, masks: bool) \
        -> Iterator[tuple[list[str], list[int] | None]]:
    """prefix_walk(dim, length, masks) in parts, in rank order, so that no
    list holds the stratum: part k is head k followed by every tail, both
    walked once by prefix_walk, with tails of _tail_length letters.  A
    text is head + "." + tail, and a mask is head mask & tail mask."""
    cut = _tail_length(dim, length)
    heads, head_masks = prefix_walk(dim, length - cut, masks)
    tails, tail_masks = prefix_walk(dim, cut, masks)
    if 0 < cut < length:
        heads = [h + "." for h in heads]
    for k, head in enumerate(heads):
        yield ([head + t for t in tails], None if tail_masks is None
               else [head_masks[k] & m for m in tail_masks])


def stratum_parts(dim: int, length: int) \
        -> Iterator[tuple[list[str], list[bool]]]:
    """word_text and is_degenerate_word of each word of stratum
    (dim, length), in rank order, in the parts of split_walk.  A word
    shorter than its dimension misses a letter, so it needs no mask."""
    if not length:  # the identity misses a letter unless dim is 0
        yield ["e"], [dim > 0]
        return
    for texts, masks in split_walk(dim, length, length >= dim):
        yield texts, ([True] * len(texts) if masks is None
                      else [m != 0 for m in masks])


def stratum_table(dim: int, length: int) -> tuple[list[str], list[bool]]:
    """stratum_parts(dim, length) joined into two lists."""
    texts: list[str] = []
    degenerate: list[bool] = []
    for part, flags in stratum_parts(dim, length):
        texts += part
        degenerate += flags
    return texts, degenerate


def face_ranks(dim: int, length: int, i: int) -> list[int]:
    """For each word w of stratum (dim, length), in rank order, the rank
    of face_word(dim, w, i) in stratum (dim - 1, length), or -1 where d_i
    shortens w: the prefix walk with the letter map of d_i."""
    codes = [f[0] - 1 if f else -1
             for f in (face_word(dim, (k,), i) for k in range(1, dim + 1))]
    base = dim - 1
    ranks = [0]
    for _ in range(length):
        ranks = [-1 if r < 0 or c < 0 else r * base + c
                 for r in ranks for c in codes]
    return ranks


def split_face_ranks(dim: int, length: int, i: int) -> Iterator[list[int]]:
    """face_ranks(dim, length, i) in the parts of split_walk: d_i acts
    letterwise, so a face's rank is its head's, shifted past the tail,
    plus its tail's."""
    cut = _tail_length(dim, length)
    tails = face_ranks(dim, cut, i)
    shift = (dim - 1) ** cut
    for h in face_ranks(dim, length - cut, i):
        yield [-1] * len(tails) if h < 0 else \
            [-1 if t < 0 else h * shift + t for t in tails]


# --- text -------------------------------------------------------------------

_letter_text = cache("a{}".format)  # the text of each letter, made once


def word_text(word: tuple[int, ...]) -> str:
    """Letters joined by dots, as in a3.a1.a2; the identity is e."""
    return ".".join(map(_letter_text, word)) if word else "e"


def simplex_text(x: Simplex) -> str:
    return word_text(x.word)


# The most lines of one block of a streamed export.
_BLOCK_LINES = 1024


def line_blocks(parts: Iterable[Iterable[str]]) -> Iterator[str]:
    """The lines of each part in turn, each ended by a newline, in blocks
    of up to _BLOCK_LINES lines, so that an export is written without
    being held whole."""
    lines = chain.from_iterable(parts)
    while block := list(islice(lines, _BLOCK_LINES)):
        block.append("")  # so that the join ends the last line too
        yield "\n".join(block)
