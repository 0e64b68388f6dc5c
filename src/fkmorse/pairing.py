"""Steepness pairing restricted to word-length strata, and matching validation.

A cell sigma pairs with the lex-least same-length coface tau in which sigma
sits as a regular face, provided sigma is the largest of ALL the same-length
faces of tau (so degenerate faces can block a pair).  This is a Forman
gradient on regular face pairs.  Degenerate cells are left critical by
default; the "allow" policy lets them pair, for diagnostics.

Pairs never cross word-length strata and faces never increase word length,
so an alternating cycle keeps its length and dimension, and the acyclicity
of each same-length stratum digraph, which validate_matching checks, makes
the matching acyclic; the strata are finite, so no descending path is
infinite.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Container, Iterable, Iterator, Optional

from .errors import SelfCheckError, TruncationError
from .simplicial import (
    MAX_STRATUM_CELLS,
    Simplex,
    StratumKey,
    check_stratum_size,
    enumerate_stratum,
    face_form,
    is_degenerate_word,
    line_blocks,
    sort_key,
    split_face_ranks,
    split_walk,
    stratum_parts,
    stratum_size,
    stratum_table,
    stratum_words,
    Word,
    surjective_words,
    word_faces,
    word_rank,
    word_text,
)

DEGENERATE_POLICIES = ("critical", "allow")

# The quantifier scopes of the rule, which are fixed.  Matching exports still
# write them, so that an export names the rule it was built under.
_SCOPE_FIELDS = {"face_quantifier": "all", "coface_quantifier": "regular"}


@dataclass(frozen=True, slots=True)
class PairingFlags:
    """Degeneracy policy of the steepness rule.

    The default "critical" leaves degenerate cells critical and gives the
    pairing every recorded value in this repository uses; "allow" lets
    degenerate cells pair.
    """

    degenerate_policy: str = "critical"

    def __post_init__(self) -> None:
        if self.degenerate_policy not in DEGENERATE_POLICIES:
            raise ValueError(
                f"degenerate_policy must be one of {DEGENERATE_POLICIES}")

    def to_json_dict(self) -> dict:
        return {**_SCOPE_FIELDS, "degenerate_policy": self.degenerate_policy}

    @classmethod
    def from_json_dict(cls, data: dict) -> "PairingFlags":
        _json_object(data, (*_SCOPE_FIELDS, "degenerate_policy"),
                     "matching flags")
        for key, value in _SCOPE_FIELDS.items():
            if data[key] != value:
                raise ValueError(
                    f"{key} {data[key]!r} is not supported: the {key} option "
                    f"was removed, and the steepness rule uses {value!r} only")
        return cls(degenerate_policy=data["degenerate_policy"])


DEFAULT_FLAGS = PairingFlags()


@dataclass(frozen=True, slots=True)
class Scope:
    """Truncation bounds: cells with dim <= max_dim and length <= max_length."""

    max_dim: int
    max_length: int

    def __post_init__(self) -> None:
        if self.max_dim < 1 or self.max_length < 1:
            raise ValueError("scope bounds must be >= 1")

    def covers(self, x: Simplex) -> bool:
        return x.dim <= self.max_dim and x.length <= self.max_length

    def strata(self) -> Iterator[tuple[int, int]]:
        """(dim, length) of each stratum in order; dim 0 has length 0 only."""
        for n in range(self.max_dim + 1):
            for length in range(self.max_length + 1 if n else 1):
                yield n, length

    def to_json_dict(self) -> dict:
        return {"max_dim": self.max_dim, "max_length": self.max_length}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Scope":
        _json_object(data, ("max_dim", "max_length"), "matching scope")
        return cls(_json_int(data["max_dim"]), _json_int(data["max_length"]))


def _json_object(data: object, keys: tuple[str, ...], what: str) -> dict:
    """data, checked to be a JSON object that holds every key."""
    if not isinstance(data, dict):
        raise ValueError(
            f"{what} must be a JSON object, not {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} has no {key!r} key")
    return data


def _json_int(value: object) -> int:
    """value, checked to be a JSON integer; a float or a string is refused,
    not truncated or parsed."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


# --- coface inversion --------------------------------------------------------
#
# A letter g in dimension n lifts, under d_i, only to g or g+1 in dimension
# n+1.  Same-length cofaces are exactly the positionwise products of these
# letter preimages; no letter may be dropped or the length would shrink.

def _coface_words(n: int, word: tuple[int, ...]) \
        -> Iterator[tuple[int, tuple[int, ...]]]:
    """(i, tau_word) for every same-length coface tau with d_i(tau) = word.

    The letter preimages under d_i: with m = n + 1 - i, a letter below m
    keeps its value, one above m rises by one, and m itself lifts to both.
    """
    for i in range(n + 2):
        m = n + 1 - i
        for w in product(*[(g,) if g < m else (g + 1,) if g > m
                           else (g, g + 1) for g in word]):
            yield i, w


def coface_occurrences(sigma: Simplex) -> dict[Simplex, tuple[int, ...]]:
    """Same-length cofaces tau, each with all indices i where d_i(tau) = sigma."""
    found: dict[tuple[int, ...], list[int]] = {}
    for i, w in _coface_words(sigma.dim, sigma.word):
        found.setdefault(w, []).append(i)
    return {Simplex(sigma.dim + 1, w): tuple(ix)
            for w, ix in sorted(found.items())}


def regular_cofaces(sigma: Simplex) -> list[tuple[Simplex, int]]:
    """Same-length cofaces holding sigma as a regular face, with the index."""
    return [(tau, ix[0]) for tau, ix in coface_occurrences(sigma).items()
            if len(ix) == 1]


# --- the single-cell steepness rule -----------------------------------------

def _cell(dim: int, word: Optional[Word]) -> Optional[Simplex]:
    return None if word is None else Simplex(dim, word)


class SteepnessRule:
    """Lazy pairing oracle that decides each word from its own letters, by
    closed forms: up_word upward, down_word downward.  Needs no global
    enumeration.

    Equivalent on every stratum to build_matching, which asks up_word
    (tested), but usable at dimensions where enumerating strata is
    infeasible.
    """

    def __init__(self, flags: PairingFlags = DEFAULT_FLAGS) -> None:
        self.flags = flags

    def up_word(self, dim: int, word: Word) -> Optional[Word]:
        """The steepness rule on a dimension-dim word: its partner's word,
        or None (_reason says why).

        The partner is the lex-least regular same-length coface, kept only
        if it passes the policy gate and the word is the largest of all its
        same-length faces.  Shorter faces and cofaces are always smaller,
        so only same-length ones matter, and the rule has a closed form:
        the word pairs exactly when its top letter n = dim occurs at least
        twice, and its partner raises the last n to n + 1.

        Derivation.  With m = n + 1 - i, the same-length cofaces tau with
        d_i(tau) = word keep every letter below m, raise every letter above
        m, and take m or m + 1 at each copy of m (_coface_words).  For
        m' < m, a coface lies in both index sets iff the word has no letter
        strictly between m' and m and the coface keeps every m' and raises
        every m.  Applied to the neighbours m - 1 and m + 1, this makes the
        coface from index i regular iff it raises some, not all, copies of
        m; so m must repeat, and the end indices (m = 0, n + 1) give none.
        The lex-least regular coface comes from the largest repeated letter
        m and raises only its last copy.  If m < n, its face d_1 exceeds
        the word at that copy; if m = n, every other same-length face is
        smaller.  A nondegenerate word holds all of 1..n, so its partner
        holds all of 1..n + 1 and is nondegenerate too.
        """
        if word.count(dim) < 2 or self.flags.degenerate_policy == \
                "critical" and is_degenerate_word(dim, word):
            return None
        p = len(word) - 1 - word[::-1].index(dim)
        return word[:p] + (dim + 1,) + word[p + 1:]

    def down_word(self, dim: int, word: Word) -> Optional[Word]:
        """The word w with up_word(dim - 1, w) = word, if any: word
        holds dim once, some dim - 1 before it and none after, and under
        critical, lowering the dim gives a nondegenerate w."""
        if dim < 2 or word.count(dim) != 1:
            return None
        p = word.index(dim)
        if dim - 1 not in word[:p] or dim - 1 in word[p + 1:]:
            return None
        sw = word[:p] + (dim - 1,) + word[p + 1:]
        if self.flags.degenerate_policy == "critical" and \
                is_degenerate_word(dim - 1, sw):
            return None
        return sw

    def pair_up(self, x: Simplex) -> Optional[Simplex]:
        return _cell(x.dim + 1, self.up_word(x.dim, x.word))

    def pair_down(self, x: Simplex) -> Optional[Simplex]:
        return _cell(x.dim - 1, self.down_word(x.dim, x.word))

    def is_matched(self, x: Simplex) -> bool:
        return self.up_word(x.dim, x.word) is not None or \
            self.down_word(x.dim, x.word) is not None

    def is_critical(self, x: Simplex) -> bool:
        return not self.is_matched(x)


def _reason(n: int, word: Word, flags: PairingFlags) -> str:
    """Why the rule leaves a dimension-n word unpaired, for a word up_word
    leaves unpaired: under critical a degenerate word is critical by fiat;
    else a word with no repeated letter has no regular coface, and one
    whose repeated letters are below n is not the largest face of its
    least regular coface (see up_word)."""
    if flags.degenerate_policy == "critical" and is_degenerate_word(n, word):
        return "degenerate"
    return "no-regular-coface" if len(set(word)) == len(word) \
        else "not-max-in-min-coface"


# --- explicit matchings over a truncation ------------------------------------

class Matching(SteepnessRule):
    """Steepness pairs under a truncation scope, held as (sigma dim, sigma
    word, tau word) triples; pairs lists them as cells, built on read.  The
    rule restricted to its pairs: up_word and down_word read them."""

    def __init__(self, pairs: Iterable[tuple[Simplex, Simplex]], scope: Scope,
                 flags: PairingFlags) -> None:
        super().__init__(flags)
        self.scope = scope
        cells = sorted(pairs, key=lambda p: (p[0].dim, sort_key(p[0])))
        for sigma, tau in cells:
            if tau.dim != sigma.dim + 1:
                raise ValueError(
                    f"pair ({sigma}, {tau}) does not span adjacent dimensions")
            if tau.length != sigma.length:
                raise ValueError(
                    f"pair ({sigma}, {tau}) crosses word-length strata")
        self._hold([(s.dim, s.word, t.word) for s, t in cells])

    def _hold(self, word_pairs: list[tuple[int, Word, Word]]) -> None:
        """Hold word_pairs, which are in (dim, length, word) order."""
        self.word_pairs = word_pairs
        # the pairs by dimension, as sigma word -> tau word and back
        self._up: dict[int, dict[Word, Word]] = defaultdict(dict)
        self._down: dict[int, dict[Word, Word]] = defaultdict(dict)
        for n, sw, tw in word_pairs:
            self._up[n][sw] = tw
            self._down[n + 1][tw] = sw

    @cached_property
    def pairs(self) -> list[tuple[Simplex, Simplex]]:
        return [(Simplex(n, sw), Simplex(n + 1, tw))
                for n, sw, tw in self.word_pairs]

    def __len__(self) -> int:
        return len(self.word_pairs)

    def up_word(self, dim: int, word: Word) -> Optional[Word]:
        """As SteepnessRule.up_word, within the pairs."""
        return self._up[dim].get(word)

    def down_word(self, dim: int, word: Word) -> Optional[Word]:
        """As SteepnessRule.down_word, within the pairs."""
        return self._down[dim].get(word)

    def is_critical(self, x: Simplex) -> bool:
        """Unmatched within scope; undecidable at dim = max_dim (no coface data)."""
        if not self.scope.covers(x):
            raise ValueError(f"{x} (dim {x.dim}) lies outside {self.scope}")
        if x.dim >= self.scope.max_dim and x.word not in self._down[x.dim]:
            raise ValueError(
                f"criticality of {x} at dim {x.dim} is undecided: the scope "
                f"holds no dimension-{x.dim + 1} cofaces")
        return super().is_critical(x)

    def pairs_for_stratum(self, dim: int, length: int) \
            -> list[tuple[Simplex, Simplex]]:
        return [(s, t) for s, t in self.pairs
                if s.dim == dim and s.length == length]

    def to_json(self) -> str:
        return json.dumps(
            {"scope": self.scope.to_json_dict(),
             "flags": self.flags.to_json_dict(),
             "pairs": [{"sigma": {"dim": n, "word": list(sw)},
                        "tau": {"dim": n + 1, "word": list(tw)},
                        "stratum": {"dim": n, "length": len(sw)}}
                       for n, sw, tw in self.word_pairs]},
            separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Matching":
        data = _json_object(json.loads(text), ("scope", "flags", "pairs"),
                            "matching export")
        pairs = []
        try:
            for entry in data["pairs"]:
                _json_object(entry, ("sigma", "tau"), "matching pair")
                s, t = (_json_object(entry[role], ("dim", "word"), role)
                        for role in ("sigma", "tau"))
                pairs.append(tuple(
                    Simplex(_json_int(x["dim"]),
                            tuple(_json_int(k) for k in x["word"]))
                    for x in (s, t)))
            scope = Scope.from_json_dict(data["scope"])
        except TypeError as exc:
            raise ValueError(f"matching export holds a value of the wrong "
                             f"type: {exc}") from None
        return cls(pairs, scope, PairingFlags.from_json_dict(data["flags"]))


class CriticalReport:
    """Critical cells per stratum under a pairing, the rule or a Matching,
    which is the rule restricted to its pairs: the words in no pair, and
    the degenerate-by-fiat cells, which it takes whole strata to list.
    Each list is built on first read and kept, keyed by (dim, length); a
    stratum outside the scope has none.  Below max_dim the words are made
    in closed form (_critical_words); at max_dim, whose cofaces are unseen,
    they are the walked words the pairing does not pair down."""

    def __init__(self, pairing: SteepnessRule, scope: Scope) -> None:
        self.pairing = pairing
        self.scope = scope
        self.flags = pairing.flags
        self._unmatched: dict[tuple[int, int], list[Simplex]] = {}
        self._words: dict[tuple[int, int], list[Word]] = {}
        self._degenerate: dict[tuple[int, int], list[Simplex]] = {}
        self._fiat = self.flags.degenerate_policy == "critical"

    @cached_property
    def strata(self) -> dict[StratumKey, tuple[list[Simplex], list[Simplex]]]:
        out: dict[StratumKey, tuple[list[Simplex], list[Simplex]]] = {}
        for n, length in self.scope.strata():
            deg = self.degenerate_by_fiat(n, length)
            unm = self.unmatched_nondegenerate(n, length)
            if deg or unm:
                out[StratumKey(n, length)] = (deg, unm)
        return out

    def degenerate_by_fiat(self, dim: int, length: int) -> list[Simplex]:
        """The degenerate cells of stratum (dim, length) under critical, in
        lex order; none under allow."""
        key = (dim, length)
        if key not in self._degenerate:
            self._degenerate[key] = [
                x for x in enumerate_stratum(dim, length)
                if is_degenerate_word(dim, x.word)] \
                if self._fiat and key in self.scope.strata() else []
        return self._degenerate[key]

    def unmatched_nondegenerate(self, dim: int, length: int) -> list[Simplex]:
        """The cells in no pair of stratum (dim, length), in lex order: the
        nondegenerate ones under critical, degenerate ones too under allow."""
        key = (dim, length)
        if key not in self._unmatched:
            self._unmatched[key] = [Simplex(dim, w)
                                    for w in self.unmatched_words(dim, length)]
        return self._unmatched[key]

    def unmatched_words(self, dim: int, length: int) -> list[Word]:
        """The words of unmatched_nondegenerate(dim, length), as words."""
        key = (dim, length)
        if key not in self._words:
            self._words[key] = list(self._unmatched_walk(dim, length))
        return self._words[key]

    def _unmatched_walk(self, dim: int, length: int) -> Iterable[Word]:
        """unmatched_words(dim, length) if kept, else its words in turn:
        below max_dim the generated words, at max_dim the walked ones less
        those that pair down."""
        if (dim, length) in self._words:
            return self._words[(dim, length)]
        if (dim, length) not in self.scope.strata():
            return ()
        if dim < self.scope.max_dim:
            return _critical_words(dim, length, self.flags)
        down = self.pairing.down_word
        return (w for w in _walked_words(dim, length, self.flags)
                if down(dim, w) is None)

    def to_csv(self) -> Iterator[str]:
        """One row per critical cell, with whether its word is degenerate
        and why it is unmatched, in the blocks of line_blocks: a word at
        max_dim is "upward-undecided", since its cofaces are unseen.  That
        stratum, the largest, is walked and not kept, unless read before."""
        return line_blocks(self._csv_parts())

    def _csv_parts(self) -> Iterator[Iterable[str]]:
        """The rows of to_csv, the header first, in parts."""
        yield ["dim,length,simplex,degenerate,reason"]
        allow, marks = not self._fiat, (",false,", ",true,")
        for n, length in self.scope.strata():
            head = f"{n},{length},"
            if self._fiat:
                yield from _degenerate_rows(head, n, length)
            # each part is read to its end before this loop moves on
            if n == self.scope.max_dim:
                yield (f"{head}{word_text(w)}"
                       f"{marks[allow and is_degenerate_word(n, w)]}"
                       "upward-undecided"
                       for w in self._unmatched_walk(n, length))
            else:
                yield (f"{head}{word_text(w)}"
                       f"{marks[allow and is_degenerate_word(n, w)]}"
                       f"{_reason(n, w, self.flags)}"
                       for w in self.unmatched_words(n, length))


def _degenerate_rows(head: str, dim: int, length: int) \
        -> Iterator[list[str]]:
    """The CSV rows of the degenerate words of stratum (dim, length), in
    rank order, in parts.  A stratum shorter than its dimension is all
    degenerate.  In a longer one the last letter is not walked: each row
    is a word of length - 1 from split_walk with one letter appended, kept
    when the letters still missing are not just that one."""
    if length < dim:
        for texts, _ in stratum_parts(dim, length):
            yield [f"{head}{t},true,degenerate" for t in texts]
        return
    if not length:  # the identity of dimension 0, which misses no letter
        return
    dot = "." if length > 1 else ""
    ends = [f"{dot}a{k},true,degenerate" for k in range(1, dim + 1)]
    kept = [[e for k, e in enumerate(ends, 1) if m & ~(1 << k)]
            for m in range(2 << dim)]
    for texts, masks in split_walk(dim, length - 1, True):
        yield [f"{head}{t}{e}" for t, m in zip(texts, masks) for e in kept[m]]


def _walked_words(n: int, length: int, flags: PairingFlags) \
        -> Iterator[Word]:
    """The words of stratum (n, L) the rule can pair: under critical, the
    n! * S(L, n) surjective ones, since pairs are nondegenerate; all under
    allow."""
    if flags.degenerate_policy == "critical":
        return surjective_words(n, length)
    return stratum_words(n, length)


def _critical_words(n: int, length: int, flags: PairingFlags) -> list[Word]:
    """The words of stratum (n, length) the rule pairs neither up nor down,
    in lex order; under critical, the nondegenerate ones only.

    Such a word holds n at most once, else it pairs up.  Holding n once,
    it pairs down exactly when some n - 1 stands before that n and none
    after (lowering the n keeps every other letter, so a nondegenerate word
    passes the critical gate).  So each is a rest word u of length - 1 over
    1..n - 1, surjective under critical, with n put in no later than the
    last n - 1 of u, or anywhere if u holds none; under allow the words
    without n join them.  Only the rest words are walked.
    """
    critical = flags.degenerate_policy == "critical"
    if not n:  # the identity, which is critical
        return [] if length else [()]
    if not length:  # the identity, degenerate in dimension n
        return [] if critical else [()]
    low, top = n - 1, (n,)
    out = [] if critical else list(stratum_words(low, length))
    rests = surjective_words if critical else stratum_words
    for u in rests(low, length - 1):
        last = len(u) - 1 - u[::-1].index(low) if low in u else len(u)
        out += [u[:p] + top + u[p:] for p in range(last, -1, -1)]
    out.sort()
    return out


def build_matching(max_dim: int, max_length: int,
                   flags: PairingFlags = DEFAULT_FLAGS,
                   validate: bool = True) -> tuple[Matching, CriticalReport]:
    """Steepness pairs for every stratum with sigma.dim < max_dim, and the
    critical report on them.

    Asks SteepnessRule.up_word about every walked word below max_dim, also
    one matched from below, so that a cell used twice reaches
    validate_matching.  The size limit counts every word of the scope.
    """
    scope = Scope(max_dim, max_length)
    for n, length in scope.strata():
        check_stratum_size(n, length)

    up = SteepnessRule(flags).up_word
    matching = Matching((), scope, flags)
    matching._hold([(n, w, tw) for n, length in scope.strata() if n < max_dim
                    for w in _walked_words(n, length, flags)
                    if (tw := up(n, w)) is not None])
    if validate:
        verdict = validate_matching(matching)
        if not verdict.ok:
            raise SelfCheckError(
                "build_matching produced an invalid matching: "
                + "; ".join(verdict.errors))
    return matching, CriticalReport(matching, scope)


# --- validation ---------------------------------------------------------------

@dataclass
class Verdict:
    ok: bool
    errors: list[str]
    cycle: Optional[list[Simplex]]
    strata_checked: list[StratumKey]


def validate_matching(m: Matching) -> Verdict:
    """Regularity, injectivity, and per-stratum acyclicity with witnesses,
    on words; the hits and the stratum digraph read one word_faces list."""
    errors: list[str] = []
    seen: dict[tuple[int, Word], str] = {}
    strata: dict[tuple[int, int], dict] = {}

    for d, sw, tw in m.word_pairs:
        n, length = d + 1, len(sw)
        if n > m.scope.max_dim or length > m.scope.max_length:
            raise ValueError(f"pair ({word_text(sw)}, {word_text(tw)}) lies "
                             f"outside scope {m.scope}")
        faces = word_faces(n, tw)
        low = face_form(n, sw)
        if faces.count(low) != 1:
            hits = [i for i, f in enumerate(faces) if f == low]
            errors.append(
                f"regularity: {word_text(sw)} occurs in faces of "
                f"{word_text(tw)} at indices {hits}, not exactly once")
        if m.flags.degenerate_policy == "critical":
            if is_degenerate_word(d, sw) or is_degenerate_word(n, tw):
                errors.append(
                    f"policy: pair ({word_text(sw)}, {word_text(tw)}) "
                    f"contains a degenerate cell under the critical policy")
        for key, role in (((d, sw), "lower"), ((n, tw), "upper")):
            if key in seen:
                errors.append(
                    f"injectivity: {word_text(key[1])} used as {role} after "
                    f"already appearing as {seen[key]}")
            else:
                seen[key] = role
        strata.setdefault((d, length), {})[low] = (
            tw, [f for f in faces if len(f) == length and f != low])

    cycle: Optional[list[Simplex]] = None
    checked: list[StratumKey] = []
    for (dim, length) in sorted(strata):
        checked.append(StratumKey(dim, length))
        found = _stratum_cycle(strata[(dim, length)])
        if found and cycle is None:
            found = [tuple(w) for w in found]
            cycle = [Simplex(dim + i % 2, w) for i, w in enumerate(found)]
            errors.append(
                f"acyclicity: stratum (dim {dim}, length {length}) carries an "
                f"alternating cycle "
                + " > ".join(map(word_text, found)))

    return Verdict(ok=not errors, errors=errors, cycle=cycle,
                   strata_checked=checked)


def _postorder(root: Word, successors: Callable[[Word], list[Word]],
               known: Container[Word]) \
        -> tuple[list[Word], Optional[list[Word]]]:
    """The words reachable from root through successors and not in known,
    each after all of its successors, and None; or, once the walk reaches a
    word it is still inside, the walk so far and that cycle w, ..., w."""
    order: list[Word] = []
    walking = {root}
    done: set[Word] = set()
    stack = [(root, iter(successors(root)))]
    while stack:
        cell, rest = stack[-1]
        for y in rest:
            if y in walking:
                path = [z for z, _ in stack]
                return order, path[path.index(y):] + [y]
            if y not in done and y not in known:
                walking.add(y)
                stack.append((y, iter(successors(y))))
                break
        else:
            stack.pop()
            walking.discard(cell)
            done.add(cell)
            order.append(cell)
    return order, None


def _stratum_cycle(pair: dict[bytes | Word, tuple[Word, list]]) \
        -> Optional[list]:
    """The words sigma_0, tau_0, sigma_1, ..., sigma_0 of a cycle, if one
    exists, from sigma word -> (tau word, tau's other same-length faces),
    the sigmas in the form of those faces."""
    succ = {sw: [f for f in others if f in pair]
            for sw, (_, others) in pair.items()}
    seen: set[Word] = set()
    for root in pair:
        if succ[root] and root not in seen:  # no cycle starts at a sink
            order, loop = _postorder(root, succ.__getitem__, seen)
            if loop:
                return [x for w in loop[:-1] for x in (w, pair[w][0])] + \
                    loop[-1:]
            seen.update(order)
    return None


# --- exports -------------------------------------------------------------------

def check_dot_size(scope: Scope) -> None:
    """Refuse a scope whose DOT diagram could pass MAX_STRATUM_CELLS lines:
    (n, L) draws n^L + (n+1)^L nodes and (n+2)(n+1)^L edges if n < max_dim."""
    drawn = 0
    for n, k in scope.strata():
        if n < scope.max_dim:
            drawn += stratum_size(n, k) + (n + 3) * stratum_size(n + 1, k)
            if drawn > MAX_STRATUM_CELLS:
                raise TruncationError(f"the DOT diagram would draw over "
                                      f"{MAX_STRATUM_CELLS} lines")


def matching_to_dot(m: Matching) -> Iterator[str]:
    """Per-stratum modified Hasse diagrams, in the blocks of line_blocks;
    meant for small scopes only.

    Same-length face edges run downward tau -> sigma in gray; matched pairs
    are reversed (sigma -> tau, red).  Degenerate cells are dashed.  Each
    stratum is drawn by rank, making no word: the lower words from the
    texts and degeneracy of stratum_table, and the upper ones, which are
    more, in the parts of stratum_parts and split_face_ranks.
    """
    return line_blocks(_dot_parts(m))


def _dot_nodes(dim: int, texts: list[str], degenerate: list[bool]) \
        -> list[str]:
    """The node line of each word, dashed if degenerate."""
    return [f'    "d{dim}:{t}" [label="{t}"{", style=dashed" if d else ""}];'
            for t, d in zip(texts, degenerate)]


def _dot_parts(m: Matching) -> Iterator[list[str]]:
    """The lines of matching_to_dot, in parts."""
    yield ["digraph steepness {", "  rankdir=BT;",
           '  node [shape=box, fontname="monospace"];']
    strata: dict[tuple[int, int], dict[tuple[int, ...], tuple[int, ...]]] = {}
    for n, sw, tw in m.word_pairs:
        strata.setdefault((n, len(sw)), {})[sw] = tw
    for (dim, length), up in sorted(strata.items()):
        n = dim + 1
        yield [f"  subgraph cluster_{dim}_{length} {{",
               f'    label="stratum (dim {dim}, length {length})";']
        lo, lo_deg = stratum_table(dim, length)
        yield _dot_nodes(dim, lo, lo_deg)
        for texts, deg in stratum_parts(n, length):
            yield _dot_nodes(n, texts, deg)
        partner = [-1] * len(lo)  # the upper rank each lower word pairs with
        for sw, tw in up.items():
            partner[word_rank(dim, sw)] = word_rank(n, tw)
        tails = [f'"d{dim}:{t}" [color=gray];' for t in lo]
        start = 0  # the rank of the part's first upper word
        for (texts, _), *ranks in zip(
                stratum_parts(n, length),
                *(split_face_ranks(n, length, i) for i in range(n + 1))):
            heads = [f'    "d{n}:{t}" -> ' for t in texts]
            yield [head + tails[f]
                   for t, (head, faces) in enumerate(zip(heads, zip(*ranks)),
                                                     start)
                   for f in faces if f >= 0 and partner[f] != t]
            start += len(texts)
        yield [f'    "d{dim}:{word_text(sw)}" -> "d{n}:{word_text(tw)}" '
               f'[color=red, penwidth=2];' for sw, tw in up.items()]
        yield ["  }"]
    yield ["}"]
