"""Integer chains on monoid words and the alternating-sum boundary.

A chain in dimension n is a finite integer combination of words.  The
boundary of a word is sum_i (-1)^i d_i over all n+1 faces.  Two modes:

* "unnormalized": every face term is kept.  Degenerate words are honest
  basis elements here; they span a subcomplex the flow never moves.
* "normalized": face terms that land on degenerate words are dropped,
  i.e. the boundary in the quotient by the degenerate subcomplex.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

from .simplicial import Simplex, Word, is_degenerate_word, word_faces

Mode = str
MODES = ("unnormalized", "normalized")


class Chain:
    """Immutable integer combination of same-dimension simplices, held as
    word -> coefficient; a Simplex is built only when a term is read."""

    __slots__ = ("dim", "_terms")

    def __init__(self, dim: int, terms: Iterable[tuple[Simplex, int]] = ()) -> None:
        merged: dict[Word, int] = {}
        for x, c in terms:
            if x.dim != dim:
                raise ValueError(
                    f"term {x} has dimension {x.dim}, chain has {dim}")
            if not isinstance(c, int):
                raise TypeError(f"coefficient {c!r} of {x} is not an integer")
            if c:
                merged[x.word] = merged.get(x.word, 0) + c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(
            self, "_terms",
            {w: c for w, c in merged.items() if c})

    @classmethod
    def _sum(cls, dim: int, terms: Iterable[tuple[Word, int]]) -> "Chain":
        """The chain sum of (word, coefficient) terms, built without the
        checks of __init__.

        Callers guarantee that every word is a dimension-dim word and every
        coefficient is an int.
        """
        merged: dict[Word, int] = {}
        for w, c in terms:
            v = merged.get(w, 0) + c
            if v:
                merged[w] = v
            else:
                merged.pop(w, None)
        chain = object.__new__(cls)
        object.__setattr__(chain, "dim", dim)
        object.__setattr__(chain, "_terms", merged)
        return chain

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Chain is immutable")

    @classmethod
    def zero(cls, dim: int) -> "Chain":
        return cls(dim)

    @classmethod
    def unit(cls, x: Simplex, coef: int = 1) -> "Chain":
        return cls(x.dim, [(x, coef)])

    def items(self) -> list[tuple[Simplex, int]]:
        """Terms sorted by (length, word)."""
        return [(Simplex(self.dim, w), c) for w, c in
                sorted(self._terms.items(), key=lambda t: (len(t[0]), t[0]))]

    def support(self) -> list[Simplex]:
        return [x for x, _ in self.items()]

    def coefficient(self, x: Simplex) -> int:
        return self._terms.get(x.word, 0) if x.dim == self.dim else 0

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[Simplex, int]]:
        return iter(self.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Chain):
            return NotImplemented
        return self.dim == other.dim and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self._terms.items())))

    def __add__(self, other: "Chain") -> "Chain":
        if not isinstance(other, Chain):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError(
                f"cannot add chains of dimensions {self.dim} and {other.dim}")
        return Chain._sum(self.dim,
                          [*self._terms.items(), *other._terms.items()])

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-1) * other

    def __neg__(self) -> "Chain":
        return (-1) * self

    def __rmul__(self, scalar: int) -> "Chain":
        if not isinstance(scalar, int):
            return NotImplemented
        return Chain._sum(self.dim,
                          [(w, scalar * c) for w, c in self._terms.items()])

    def __str__(self) -> str:
        return join_terms([(str(x), c) for x, c in self.items()], "*")

    def __repr__(self) -> str:
        return f"Chain({self.dim}, {self.items()!r})"

    def to_json(self) -> str:
        return json.dumps(
            {"dim": self.dim,
             "terms": [{"word": list(x.word), "coef": c}
                       for x, c in self.items()]},
            separators=(",", ":"))


def join_terms(terms: Iterable[tuple[str, int]], times: str) -> str:
    """Signed terms joined as "x - 2*y + z", each a cell text and a nonzero
    coefficient, with times between a magnitude above 1 and its cell; no
    terms give "0"."""
    parts: list[str] = []
    for text, c in terms:
        mag = abs(c)
        body = text if mag == 1 else f"{mag}{times}{text}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) or "0"


def _face_totals(dim: int, word: bytes | Word) -> dict[bytes | Word, int]:
    """sum_i (-1)^i d_i of a dimension-dim word, dim >= 1, as the total of
    each face in face_form(dim, .), zeros included; word may be given as a
    word or in that form."""
    out = {}
    sign = 1
    for f in word_faces(dim, word):
        out[f] = out.get(f, 0) + sign
        sign = -sign
    return out


def signed_faces(dim: int, word: bytes | Word,
                 mode: Mode = "unnormalized") -> dict[bytes | Word, int]:
    """The nonzero coefficients of _face_totals; "normalized" drops
    degenerate faces.  The caller checks the arguments."""
    normalized = mode == "normalized"
    return {f: v for f, v in _face_totals(dim, word).items() if v and not (
        normalized and is_degenerate_word(dim - 1, f))}


def face_sum(dim: int, word: Word, mode: Mode = "unnormalized") -> dict[Word, int]:
    """signed_faces with each face a word, converted as it is kept."""
    normalized = mode == "normalized"
    return {tuple(f): v for f, v in _face_totals(dim, word).items()
            if v and not (normalized and is_degenerate_word(dim - 1, f))}


def boundary(c: Chain, mode: Mode = "unnormalized") -> Chain:
    if mode not in MODES:
        raise ValueError(f"unknown boundary mode {mode!r}")
    if c.dim == 0:
        raise ValueError("dimension-0 chains have no boundary")
    n = c.dim
    return Chain._sum(n - 1, ((f, coef * v) for w, coef in c._terms.items()
                              for f, v in face_sum(n, w, mode).items()))


def inner(c: Chain, x: Simplex) -> int:
    """Coefficient of the word x in the chain c."""
    if c.dim != x.dim:
        raise ValueError(
            f"cannot pair a dimension-{c.dim} chain with a "
            f"dimension-{x.dim} simplex")
    return c.coefficient(x)


def incidence(tau: Simplex, sigma: Simplex, mode: Mode = "unnormalized") -> int:
    """<boundary of tau, sigma>, read off the face sum of tau."""
    if tau.dim != sigma.dim + 1:
        raise ValueError(
            f"incidence needs dimensions to differ by 1, got {tau.dim} and {sigma.dim}")
    if mode not in MODES:
        raise ValueError(f"unknown boundary mode {mode!r}")
    return face_sum(tau.dim, tau.word, mode).get(sigma.word, 0)
