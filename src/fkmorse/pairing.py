"""Steepness pairing restricted to word-length strata, and matching validation.

A cell sigma pairs with the lex-least same-length coface tau in which sigma
sits as a regular face, provided sigma is the largest of ALL the same-length
faces of tau (so degenerate faces can block a pair).  This is a Forman
gradient on regular face pairs.  Degenerate cells are left critical by
default; the "allow" policy lets them pair, for diagnostics.

Pairs never cross word-length strata and faces never increase word length,
so cycle checking reduces to the same-length sub-digraph of each stratum;
validate_matching records that reduction in its verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Optional

from .errors import SelfCheckError, TruncationError
from .simplicial import (
    Simplex,
    StratumKey,
    enumerate_stratum,
    face,
    face_word,
    is_degenerate,
    is_degenerate_word,
    simplex_text,
    sort_key,
    stratum_size,
    stratum_words,
    surjective_words,
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

    def to_json_dict(self) -> dict:
        return {"max_dim": self.max_dim, "max_length": self.max_length}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Scope":
        return cls(int(data["max_dim"]), int(data["max_length"]))


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

def _same_length_face_words(dim: int, word: tuple[int, ...]) \
        -> list[tuple[int, ...]]:
    """The faces d_0..d_dim of a word that keep its length, with repeats."""
    length = len(word)
    return [f for f in (face_word(dim, word, i) for i in range(dim + 1))
            if len(f) == length]


def _same_length_faces(tau: Simplex) -> list[Simplex]:
    return [Simplex(tau.dim - 1, f)
            for f in _same_length_face_words(tau.dim, tau.word)]


def _steepness(n: int, word: tuple[int, ...], flags: PairingFlags) \
        -> tuple[Optional[tuple[int, ...]], str]:
    """The steepness rule on a dimension-n word: its partner's word, or
    None with the reason it stays unmatched.

    The partner is the lex-least regular same-length coface, kept only if
    it passes the policy gate and the word is the largest of all its
    same-length faces.  Shorter faces and cofaces are always smaller, so
    only same-length ones matter.
    """
    critical = flags.degenerate_policy == "critical"
    if critical and is_degenerate_word(n, word):
        return None, "degenerate"
    counts: dict[tuple[int, ...], int] = {}
    for _, w in _coface_words(n, word):
        counts[w] = counts.get(w, 0) + 1
    candidates = [w for w, c in counts.items() if c == 1]
    if not candidates:
        return None, "no-regular-coface"
    tw = min(candidates)
    if critical and is_degenerate_word(n + 1, tw):
        return None, "coface-degenerate"
    if any(f > word for f in _same_length_face_words(n + 1, tw)):
        return None, "not-max-in-min-coface"
    return tw, "paired"


def steepness_pair_reason(
        sigma: Simplex,
        flags: PairingFlags = DEFAULT_FLAGS) -> tuple[Optional[Simplex], str]:
    """The partner of sigma, or None with the reason it stays unmatched."""
    tw, reason = _steepness(sigma.dim, sigma.word, flags)
    return (None if tw is None else Simplex(sigma.dim + 1, tw)), reason


def steepness_pair(sigma: Simplex,
                   flags: PairingFlags = DEFAULT_FLAGS) -> Optional[Simplex]:
    return steepness_pair_reason(sigma, flags)[0]


def _pair_down(tau: Simplex, flags: PairingFlags) -> Optional[Simplex]:
    """The sigma with steepness_pair(sigma) = tau, computed from tau's side."""
    if tau.dim == 0:
        return None
    faces = _same_length_face_words(tau.dim, tau.word)
    if not faces:
        return None
    sw = max(faces)
    # only a regular face can pair: it must occupy a single face index
    if faces.count(sw) != 1:
        return None
    if _steepness(tau.dim - 1, sw, flags)[0] == tau.word:
        return Simplex(tau.dim - 1, sw)
    return None


class SteepnessRule:
    """Lazy, memoized pairing oracle; needs no global enumeration.

    Equivalent on every stratum to build_matching (tested), but usable at
    dimensions where enumerating strata is infeasible.
    """

    def __init__(self, flags: PairingFlags = DEFAULT_FLAGS) -> None:
        self.flags = flags
        self._up: dict[Simplex, Optional[Simplex]] = {}
        self._down: dict[Simplex, Optional[Simplex]] = {}

    def pair_up(self, x: Simplex) -> Optional[Simplex]:
        if x not in self._up:
            self._up[x] = steepness_pair(x, self.flags)
        return self._up[x]

    def pair_down(self, x: Simplex) -> Optional[Simplex]:
        if x not in self._down:
            self._down[x] = _pair_down(x, self.flags)
        return self._down[x]

    def is_matched(self, x: Simplex) -> bool:
        return self.pair_up(x) is not None or self.pair_down(x) is not None

    def is_critical(self, x: Simplex) -> bool:
        return not self.is_matched(x)


# --- explicit matchings over a truncation ------------------------------------

class Matching:
    """A finite set of steepness pairs built under a truncation scope."""

    def __init__(self, pairs: Iterable[tuple[Simplex, Simplex]], scope: Scope,
                 flags: PairingFlags) -> None:
        self.scope = scope
        self.flags = flags
        self.pairs: list[tuple[Simplex, Simplex]] = sorted(
            pairs, key=lambda p: (p[0].dim, sort_key(p[0])))
        self._up: dict[Simplex, Simplex] = {}
        self._down: dict[Simplex, Simplex] = {}
        for sigma, tau in self.pairs:
            if tau.dim != sigma.dim + 1:
                raise ValueError(
                    f"pair ({sigma}, {tau}) does not span adjacent dimensions")
            if tau.length != sigma.length:
                raise ValueError(
                    f"pair ({sigma}, {tau}) crosses word-length strata")
            self._up[sigma] = tau
            self._down[tau] = sigma

    def __len__(self) -> int:
        return len(self.pairs)

    def pair_up(self, x: Simplex) -> Optional[Simplex]:
        return self._up.get(x)

    def pair_down(self, x: Simplex) -> Optional[Simplex]:
        return self._down.get(x)

    def is_matched(self, x: Simplex) -> bool:
        return x in self._up or x in self._down

    def is_critical(self, x: Simplex) -> bool:
        """Unmatched within scope; undecidable at dim = max_dim (no coface data)."""
        if not self.scope.covers(x):
            raise ValueError(f"{x} (dim {x.dim}) lies outside {self.scope}")
        if x.dim >= self.scope.max_dim and x not in self._down:
            raise ValueError(
                f"criticality of {x} at dim {x.dim} is undecided: the scope "
                f"holds no dimension-{x.dim + 1} cofaces")
        return not self.is_matched(x)

    def pairs_for_stratum(self, dim: int, length: int) \
            -> list[tuple[Simplex, Simplex]]:
        return [(s, t) for s, t in self.pairs
                if s.dim == dim and s.length == length]

    def to_json(self) -> str:
        return json.dumps(
            {"scope": self.scope.to_json_dict(),
             "flags": self.flags.to_json_dict(),
             "pairs": [{"sigma": {"dim": s.dim, "word": list(s.word)},
                        "tau": {"dim": t.dim, "word": list(t.word)},
                        "stratum": {"dim": s.dim, "length": s.length}}
                       for s, t in self.pairs]},
            separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Matching":
        data = json.loads(text)
        pairs = []
        for entry in data["pairs"]:
            s = Simplex(int(entry["sigma"]["dim"]),
                        tuple(int(k) for k in entry["sigma"]["word"]))
            t = Simplex(int(entry["tau"]["dim"]),
                        tuple(int(k) for k in entry["tau"]["word"]))
            pairs.append((s, t))
        return cls(pairs, Scope.from_json_dict(data["scope"]),
                   PairingFlags.from_json_dict(data["flags"]))


class CriticalReport:
    """Critical cells per stratum, split degenerate-by-fiat vs unmatched.

    reasons maps each unmatched cell that is not degenerate by fiat to why
    the rule skipped it; build_matching fills it and the per-stratum lists
    of those cells as it walks.  strata adds the degenerate-by-fiat cells
    (every degenerate word, under the critical policy), and would_pair lists
    the degenerate cells that satisfy the steepness conditions and were kept
    critical only by policy.  Both enumerate whole strata, so each is built
    on first read and kept; the homology path reads neither.
    """

    def __init__(self, scope: Scope, flags: PairingFlags,
                 unmatched: dict[StratumKey, list[Simplex]],
                 reasons: dict[Simplex, str]) -> None:
        self.scope = scope
        self.flags = flags
        self.reasons = reasons
        self._unmatched = unmatched

    @cached_property
    def strata(self) -> dict[StratumKey, tuple[list[Simplex], list[Simplex]]]:
        fiat = self.flags.degenerate_policy == "critical"
        out: dict[StratumKey, tuple[list[Simplex], list[Simplex]]] = {}
        for n in range(self.scope.max_dim + 1):
            for length in range(self.scope.max_length + 1 if n else 1):
                key = StratumKey(n, length)
                deg = [x for x in enumerate_stratum(n, length)
                       if is_degenerate_word(n, x.word)] if fiat else []
                unm = self._unmatched.get(key, [])
                if deg or unm:
                    out[key] = (deg, unm)
        return out

    @cached_property
    def would_pair(self) -> list[tuple[Simplex, Simplex]]:
        if self.flags.degenerate_policy != "critical":
            return []
        allow = PairingFlags(degenerate_policy="allow")
        out = []
        for length in range(self.scope.max_length + 1):
            for n in range(0 if length == 0 else 1, self.scope.max_dim):
                for word in stratum_words(n, length):
                    if is_degenerate_word(n, word):
                        tw, _ = _steepness(n, word, allow)
                        if tw is not None:
                            out.append((Simplex(n, word), Simplex(n + 1, tw)))
        return out

    def degenerate_by_fiat(self, dim: int, length: int) -> list[Simplex]:
        return self.strata.get(StratumKey(dim, length), ([], []))[0]

    def unmatched_nondegenerate(self, dim: int, length: int) -> list[Simplex]:
        return self._unmatched.get(StratumKey(dim, length), [])

    def critical_cells(self, dim: int, length: int) -> list[Simplex]:
        deg, unm = self.strata.get(StratumKey(dim, length), ([], []))
        return sorted(deg + unm, key=sort_key)

    def to_csv(self) -> str:
        lines = ["dim,length,simplex,degenerate,reason"]
        for key in sorted(self.strata, key=lambda k: (k.dim, k.length)):
            deg, unm = self.strata[key]
            for x in sorted(deg, key=sort_key):
                lines.append(
                    f"{key.dim},{key.length},{simplex_text(x)},true,degenerate")
            for x in sorted(unm, key=sort_key):
                reason = self.reasons.get(x, "unmatched")
                lines.append(
                    f"{key.dim},{key.length},{simplex_text(x)},false,{reason}")
        return "\n".join(lines) + "\n"


def build_matching(max_dim: int, max_length: int,
                   flags: PairingFlags = DEFAULT_FLAGS,
                   validate: bool = True,
                   max_stratum_cells: int = 2_000_000) \
        -> tuple[Matching, CriticalReport]:
    """Steepness pairs for every stratum with sigma.dim < max_dim.

    Walks the strata dimension by dimension and applies the steepness rule
    to each walked word on its own, from its local cofaces and faces.  Under
    the critical policy both cells of a pair are nondegenerate, so only the
    surjective words are walked: n! * S(L, n) of the n**L words of stratum
    (n, L); under allow, every word.  Each walked word pairs upward, is
    matched from below, or is recorded with the reason it stays unmatched.
    Cells at max_dim are classified only by their downward status (their
    cofaces are unseen), with reason "upward-undecided".  The size limit
    counts every word of a stratum, walked or not.
    """
    if max_dim < 1 or max_length < 1:
        raise ValueError("build_matching needs max_dim >= 1 and max_length >= 1")
    for n in range(1, max_dim + 1):
        for length in range(max_length + 1):
            size = stratum_size(n, length)
            if size > max_stratum_cells:
                raise TruncationError(
                    f"stratum (dim {n}, length {length}) holds {size} cells, "
                    f"over the limit of {max_stratum_cells}",
                    dim=n, length=length)

    walk = surjective_words if flags.degenerate_policy == "critical" \
        else stratum_words
    pairs: list[tuple[Simplex, Simplex]] = []
    unmatched: dict[StratumKey, list[Simplex]] = {}
    reasons: dict[Simplex, str] = {}
    below: set[tuple[int, ...]] = set()  # dim-n words matched from dim n-1
    for n in range(max_dim + 1):
        above: set[tuple[int, ...]] = set()
        for length in range(max_length + 1 if n else 1):
            cells = []
            for word in walk(n, length):
                # words matched from below get the rule too, so that a cell
                # the rule would use twice reaches validate_matching
                if n < max_dim:
                    tw, reason = _steepness(n, word, flags)
                    if tw is not None:
                        pairs.append((Simplex(n, word), Simplex(n + 1, tw)))
                        above.add(tw)
                        continue
                else:
                    reason = "upward-undecided"
                if word in below:
                    continue
                x = Simplex(n, word)
                cells.append(x)
                reasons[x] = reason
            if cells:
                unmatched[StratumKey(n, length)] = cells
        below = above

    scope = Scope(max_dim, max_length)
    matching = Matching(pairs, scope, flags)
    if validate:
        verdict = validate_matching(matching)
        if not verdict.ok:
            raise SelfCheckError(
                "build_matching produced an invalid matching: "
                + "; ".join(verdict.errors))
    return matching, CriticalReport(scope, flags, unmatched, reasons)


# --- validation ---------------------------------------------------------------

@dataclass
class Verdict:
    ok: bool
    errors: list[str]
    cycle: Optional[list[Simplex]]
    strata_checked: list[StratumKey]
    note: str


_REDUCTION_NOTE = (
    "pairs stay inside one word-length stratum and faces never increase "
    "word length, so any alternating cycle preserves length and dimension; "
    "acyclicity of each same-length stratum digraph implies global "
    "acyclicity, and finiteness of strata rules out infinite descending "
    "paths")


def validate_matching(m: Matching, scope: Optional[Scope] = None) -> Verdict:
    """Regularity, injectivity, and per-stratum acyclicity with witnesses."""
    scope = scope or m.scope
    errors: list[str] = []
    seen: dict[Simplex, str] = {}
    strata: dict[tuple[int, int], list[tuple[Simplex, Simplex]]] = {}

    for sigma, tau in m.pairs:
        if not scope.covers(sigma) or not scope.covers(tau):
            raise ValueError(
                f"pair ({sigma}, {tau}) lies outside scope {scope}")
        hits = [i for i in range(tau.dim + 1) if face(tau, i) == sigma]
        if len(hits) != 1:
            errors.append(
                f"regularity: {simplex_text(sigma)} occurs in faces of "
                f"{simplex_text(tau)} at indices {hits}, not exactly once")
        if m.flags.degenerate_policy == "critical":
            if is_degenerate(sigma) or is_degenerate(tau):
                errors.append(
                    f"policy: pair ({simplex_text(sigma)}, {simplex_text(tau)}) "
                    f"contains a degenerate cell under the critical policy")
        for cell, role in ((sigma, "lower"), (tau, "upper")):
            if cell in seen:
                errors.append(
                    f"injectivity: {simplex_text(cell)} used as {role} after "
                    f"already appearing as {seen[cell]}")
            else:
                seen[cell] = role
        strata.setdefault((sigma.dim, sigma.length), []).append((sigma, tau))

    cycle: Optional[list[Simplex]] = None
    checked: list[StratumKey] = []
    for (dim, length) in sorted(strata):
        checked.append(StratumKey(dim, length))
        found = _stratum_cycle(strata[(dim, length)])
        if found and cycle is None:
            cycle = found
            errors.append(
                f"acyclicity: stratum (dim {dim}, length {length}) carries an "
                f"alternating cycle "
                + " > ".join(simplex_text(x) for x in found))

    return Verdict(ok=not errors, errors=errors, cycle=cycle,
                   strata_checked=checked, note=_REDUCTION_NOTE)


def _stratum_cycle(pairs: list[tuple[Simplex, Simplex]]) \
        -> Optional[list[Simplex]]:
    """A cycle sigma_0, tau_0, sigma_1, ..., sigma_0 if one exists."""
    partner = dict(pairs)
    succ: dict[Simplex, list[Simplex]] = {}
    for sigma, tau in pairs:
        succ[sigma] = [f for f in _same_length_faces(tau)
                       if f != sigma and f in partner]

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {s: WHITE for s in partner}
    for root in partner:
        if color[root] != WHITE:
            continue
        stack: list[tuple[Simplex, int]] = [(root, 0)]
        trail: list[Simplex] = [root]
        color[root] = GRAY
        while stack:
            node, idx = stack[-1]
            if idx < len(succ[node]):
                stack[-1] = (node, idx + 1)
                nxt = succ[node][idx]
                if color[nxt] == GRAY:
                    at = trail.index(nxt)
                    loop = trail[at:] + [nxt]
                    out: list[Simplex] = []
                    for s in loop[:-1]:
                        out.extend((s, partner[s]))
                    out.append(loop[-1])
                    return out
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, 0))
                    trail.append(nxt)
            else:
                color[node] = BLACK
                stack.pop()
                trail.pop()
    return None


# --- exports -------------------------------------------------------------------

def matching_to_dot(m: Matching) -> str:
    """Per-stratum modified Hasse diagrams; meant for small scopes only.

    Same-length face edges run downward tau -> sigma in gray; matched pairs
    are reversed (sigma -> tau, red).  Degenerate cells are dashed.
    """
    lines = ["digraph steepness {", "  rankdir=BT;",
             '  node [shape=box, fontname="monospace"];']
    strata = sorted({(s.dim, s.length) for s, _ in m.pairs})
    for dim, length in strata:
        lines.append(f"  subgraph cluster_{dim}_{length} {{")
        lines.append(f'    label="stratum (dim {dim}, length {length})";')
        cells = list(enumerate_stratum(dim, length)) + \
            list(enumerate_stratum(dim + 1, length))
        pair_set = {(s, t) for s, t in m.pairs_for_stratum(dim, length)}
        up = dict(pair_set)
        for x in cells:
            style = ', style=dashed' if is_degenerate(x) else ''
            lines.append(
                f'    "d{x.dim}:{simplex_text(x)}" '
                f'[label="{simplex_text(x)}"{style}];')
        for tau in enumerate_stratum(dim + 1, length):
            for f in _same_length_faces(tau):
                if up.get(f) == tau:
                    continue
                lines.append(
                    f'    "d{tau.dim}:{simplex_text(tau)}" -> '
                    f'"d{f.dim}:{simplex_text(f)}" [color=gray];')
        for sigma, tau in sorted(pair_set, key=lambda p: sort_key(p[0])):
            lines.append(
                f'    "d{sigma.dim}:{simplex_text(sigma)}" -> '
                f'"d{tau.dim}:{simplex_text(tau)}" [color=red, penwidth=2];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
