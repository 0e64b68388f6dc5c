"""The discrete vector field V, the flow id + dV + Vd, and Morse boundaries.

V sends a matched lower cell to minus-incidence times its partner and
everything else to zero; iterating the flow on a chain reaches a fixed
point because the matching is acyclic and word length filters the strata.
The `flow` command prints that fixed point, and the tests use it as the
oracle for Morse boundary slices.

Morse boundary entries come from the gradient-path formula instead
(Forman, Morse theory for cell complexes, 1998, Thm 8.10; in algorithmic
form Skoldberg, TAMS 2006, and Harker-Mischaikow-Mrozek-Nanda, FoCM 2014),
along two reductions that share only the pairing and the incidences and
must agree at every basis cell: forward, each face of a cell projects onto
the critical cells by following gradient paths down; backward, gradient
paths run up from each basis cell through upper cofaces to unpaired ones,
read off a coface table that inverts the face map over a whole stratum of
the scope.  So boundary rows enumerate the scope's strata, on a
SteepnessRule too, while stabilize and apply_V stay lazy.  Both key
their words in byte form (face_form) and make a word only to ask the
pairing; the forward one takes faces from simplicial's byte face tables,
the backward one from translate tables read off the letter-level
face_word, so the two share no face code.  None of it makes reference
cycles, which is why the homology path can pause the cyclic collector.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache
from typing import Callable, Container

from .chains import MODES, Chain, boundary, incidence, signed_faces
from .errors import SelfCheckError, StabilizationError, TruncationError
from .pairing import (Matching, PairingFlags, Scope, SteepnessRule,
                      _postorder, validate_matching)
from .simplicial import (Simplex, Word, check_stratum_size, face_form,
                         face_word, identity, is_degenerate_word, sort_key,
                         stratum_words, surjective_words, word_text)

Key = bytes | Word  # a word in face_form
Edges = tuple[list[Key], list[int], list[tuple[Key, int]]]
_NO_EDGES: Edges = ([], [], [])


# --- named cells ---------------------------------------------------------------
#
# Staircase words, their first-letter transposes, the omit-one staircases and
# powers of the edge.

def sigma_cell(r: int) -> Simplex:
    if r < 0:
        raise ValueError("sigma(r) needs r >= 0")
    return Simplex(max(r, 1), tuple(range(r, 0, -1))) if r else identity(0)


def tau_cell(r: int) -> Simplex:
    if r < 0:
        raise ValueError("tau(r) needs r >= 0")
    if r < 2:
        return sigma_cell(r)  # no tail to double
    return Simplex(r, tuple(range(r, 2, -1)) + (2, 2))


def sigma_tilde_cell(r: int) -> Simplex:
    if r < 2:
        raise ValueError("sigma-tilde(r) needs r >= 2")
    w = list(range(r, 0, -1))
    w[0], w[1] = w[1], w[0]
    return Simplex(r, tuple(w))


def tau_tilde_cell(r: int) -> Simplex:
    if r < 3:
        raise ValueError("tau-tilde(r) needs r >= 3")
    w = list(range(r, 2, -1)) + [2, 2]
    w[0], w[1] = w[1], w[0]
    return Simplex(r, tuple(w))


def beta_cell(k: int, s: int) -> Simplex:
    if k < 1 or not 1 <= s <= k:
        raise ValueError("beta(k, s) needs k >= 1 and 1 <= s <= k")
    return Simplex(k + 1, tuple(j for j in range(k + 1, 0, -1) if j != s))


def y_power(r: int) -> Simplex:
    if r < 0:
        raise ValueError("y-power(r) needs r >= 0")
    return Simplex(1, (1,) * r)


# --- the flow -------------------------------------------------------------------

def check_mode(mode: str, flags: PairingFlags) -> None:
    """Refuse a mode the flow cannot run under flags, before any work."""
    if mode not in MODES:
        raise ValueError(f"unknown chain mode {mode!r}")
    if mode == "normalized" and flags.degenerate_policy == "allow":
        raise ValueError(
            "normalized chains drop degenerate cells; the allow policy "
            "pairs them, so the combination is incoherent")


def _gradient_order(root: Word, successors: Callable[[Word], list[Word]],
                    known: Container[Word]) -> list[Word]:
    """The post-order of _postorder; a cycle, which an acyclic matching
    never has, is a failed self-check."""
    order, cycle = _postorder(root, successors, known)
    if cycle:
        raise SelfCheckError(
            f"gradient path from {word_text(cycle[-2])} returns to "
            f"{word_text(cycle[-1])}: the matching has a cycle")
    return order


def _regular(x: Word, tau: Word, inc: int) -> int:
    """inc, the incidence of the matched pair (x, tau), checked to be +-1."""
    if abs(inc) != 1:
        raise SelfCheckError(
            f"matched pair ({word_text(x)}, {word_text(tau)}) has "
            f"incidence {inc}, not a regular pair")
    return inc


@cache
def _letter_tables(m: int) -> list[tuple[bytes, bytes]]:
    """The bytes.translate arguments (table, deleted letters) of d_0, ...,
    d_m on dimension-m words, m < 256, each read off face_word one letter
    at a time: faces act letterwise."""
    images = [[face_word(m, (k,), i) for k in range(1, m + 1)]
              for i in range(m + 1)]
    return [(bytes([0] + [f[0] if f else 0 for f in row] + [0] * (255 - m)),
             bytes(k for k, f in enumerate(row, 1) if not f)) for row in images]


class FlowContext:
    """Scope-guarded flow computations over a fixed pairing.

    The pairing is a lazy SteepnessRule, which the homology path uses, or
    a Matching, the rule restricted to its pairs, validated here.
    Chains whose flow would need cells outside the scope raise rather than
    returning a partial answer.  stabilize and apply_V ask the pairing one
    cell at a time; boundary_rows walks the strata of the scope one
    dimension above its basis, each within MAX_STRATUM_CELLS, also on a
    SteepnessRule.  The projection memo, the basis index, the coface
    tables and the columns key words in face_form, bytes below dimension
    256; the incidence memo keys them by word.  No memo refers back to the
    context, so dropping it frees them all by reference counting, and the
    homology path runs with the cyclic collector paused.
    """

    def __init__(self, pairing: SteepnessRule, scope: Scope,
                 mode: str = "unnormalized") -> None:
        check_mode(mode, pairing.flags)
        if isinstance(pairing, Matching):
            if scope.max_dim > pairing.scope.max_dim or \
                    scope.max_length > pairing.scope.max_length:
                raise ValueError(
                    f"flow scope {scope} exceeds matching scope {pairing.scope}")
            verdict = validate_matching(pairing)
            if not verdict.ok:
                raise SelfCheckError(
                    "refusing to build a flow on an invalid matching: "
                    + "; ".join(verdict.errors))
        self.pairing = pairing
        self.scope = scope
        self.mode = mode
        self.dual_route_checks = 0
        # the word-level memos of boundary_rows' reductions, by dimension
        self._incidence: dict[int, dict[Word, int]] = defaultdict(dict)
        self._gradient: dict[int, dict] = defaultdict(dict)
        # the coface tables, by dimension and degeneracy of the faces
        self._edges: dict[tuple[int, bool], dict[Key, Edges]] = {}
        # the cells of dimension max_dim and length <= max_length, the sum
        # of n ** length, in closed form
        n, top = scope.max_dim, scope.max_length
        self.iteration_cap = max(
            64, (n ** (top + 1) - 1) // (n - 1) if n > 1 else top + 1)

    def _guard(self, c: Chain) -> None:
        if c.dim + 1 > self.scope.max_dim:
            raise TruncationError(
                f"V on a dimension-{c.dim} chain needs dimension "
                f"{c.dim + 1} cells, beyond max_dim {self.scope.max_dim}",
                dim=c.dim + 1)
        max_length = self.scope.max_length
        beyond = [w for w in c._terms if len(w) > max_length]
        if beyond:
            # name the least offender, so the message does not depend on
            # the order the chain's terms were added in
            w = min(beyond, key=lambda w: (len(w), w))
            raise TruncationError(
                f"cell {word_text(w)} has word length {len(w)}, beyond "
                f"max_length {max_length}", length=len(w))

    def apply_V(self, c: Chain) -> Chain:
        self._guard(c)
        terms = []
        for w, coef in c._terms.items():
            tau = self.pairing.pair_up(Simplex(c.dim, w))
            if tau is None:
                continue
            inc = self._pair_incidence(c.dim, w, tau.word)
            terms.append((tau.word, -inc * coef))
        return Chain._sum(c.dim + 1, terms)

    def apply_flow(self, c: Chain) -> Chain:
        out = c + boundary(self.apply_V(c), self.mode)
        if c.dim > 0:
            out = out + self.apply_V(boundary(c, self.mode))
        return out

    def stabilize(self, c: Chain) -> tuple[Chain, int]:
        current = c
        for step in range(self.iteration_cap + 1):
            nxt = self.apply_flow(current)
            if nxt == current:
                return current, step
            current = nxt
        raise StabilizationError(
            f"flow did not stabilize within {self.iteration_cap} iterations; "
            f"the matching must be invalid",
            iterations=self.iteration_cap,
            orbit_tail=(str(current)[:400],))

    # --- Morse boundary rows ----------------------------------------------------

    def _pair_incidence(self, n: int, x: Word, tau: Word) -> int:
        """<boundary tau, x> of the dimension-n word x and its partner tau,
        checked to be +-1 when first computed; the pairing is fixed."""
        inc = self._incidence[n].get(x)
        if inc is None:
            inc = self._incidence[n][x] = _regular(
                x, tau, incidence(Simplex(n + 1, tau), Simplex(n, x)))
        return inc

    def _projection(self, n: int, x: bytes | Word) -> dict[bytes | Word, int]:
        """G(x): the critical words of the stable value of x under the flow,
        x and the words of G(x) in face_form(n + 1, .), as the faces of the
        dimension-(n + 1) words are.

        G(x) = x for a critical x, 0 for an upper cell, and
        -inc * sum over the other faces y of its partner tau of
        <boundary tau, y> G(y) for a cell that pairs up.  Memoized per
        context; a word is made only to ask the pairing and the pair's
        incidence, once per cell the memo lacks.
        """
        memo = self._gradient[n]
        if x in memo:
            return memo[x]
        pairing = self.pairing
        partners: dict[bytes | Word, tuple[int, list]] = {}

        def faces(cell: bytes | Word) -> list[bytes | Word]:
            word = tuple(cell)
            tau = pairing.up_word(n, word)
            if tau is None:  # G is known: the cell is upper or critical
                memo[cell] = {} if pairing.down_word(n, word) is not None \
                    else {cell: 1}
                return []
            other = [(y, v) for y, v in
                     signed_faces(n + 1, tau, self.mode).items() if y != cell]
            partners[cell] = (-self._pair_incidence(n, word, tau), other)
            return [y for y, _ in other]

        for cell in _gradient_order(x, faces, memo):
            if cell not in partners:
                continue
            scale, other = partners.pop(cell)
            acc: dict[bytes | Word, int] = {}
            for y, v in other:
                for z, u in memo[y].items():
                    acc[z] = acc.get(z, 0) + scale * v * u
            memo[cell] = {z: u for z, u in acc.items() if u}
        return memo[x]

    def _coface_table(self, n: int, degenerate: bool) -> dict[Key, Edges]:
        """The gradient edges out of each dimension-n word z of one
        degeneracy, and the cofaces a row can read, by inverting the faces
        of the dimension-(n+1) words of the scope that are not lower cells.

        For each upper coface tau whose partner y is not z, y and the weight
        -<boundary tau, y> <boundary tau, z>, in parallel lists; then each
        unpaired coface tau (critical, or degenerate and critical by fiat)
        with <boundary tau, z>; no row reads a lower one.  The faces,
        partners and unpaired cofaces are keyed in face_form(n + 1, .), their
        faces taken by _letter_tables below dimension 256 and by face_word
        from there on.

        Every face of a surjective word is surjective, and a degenerate word
        has net incidence 0 on every nondegenerate face, so nondegenerate
        faces need only the surjective words and degenerate ones the rest.
        The critical policy pairs no degenerate word (a Matching that pairs
        one is refused on construction), so there the degenerate words are
        all unpaired, and the pairing is not asked about them.
        """
        m, lengths = n + 1, range(self.scope.max_length + 1)
        for length in lengths:
            check_stratum_size(m, length)
        down, up = self.pairing.down_word, self.pairing.up_word
        if degenerate and self.pairing.flags.degenerate_policy == "critical":
            down = up = lambda dim, word: None
        incidences = self._incidence[n]
        table: dict[Key, Edges] = defaultdict(lambda: ([], [], []))
        face, steps = (bytes.translate, _letter_tables(m)) if m < 256 else (
            lambda w, i, _: face_word(m, w, i), [(i, 0) for i in range(m + 1)])
        for length in lengths:
            words = surjective_words(m, length) if not degenerate else (
                w for w in stratum_words(m, length)
                if is_degenerate_word(m, w))
            for w in words:
                y = down(m, w)
                if y is None and up(m, w) is not None:
                    continue  # no row reads a lower cell
                key = face_form(m, w)
                inc, sign = {}, 1
                for a, b in steps:  # face(key, a, b) is d_0, ..., d_m
                    f = face(key, a, b)
                    inc[f] = inc.get(f, 0) + sign
                    sign = -sign
                if y is None:
                    for f, v in inc.items():
                        if v:
                            table[f][2].append((key, v))
                    continue
                # the forward route reads the pair's incidence from here too
                y_key = face_form(m, y)
                p = incidences[y] = _regular(y, w, inc.pop(y_key, 0))
                for f, v in inc.items():
                    if v:
                        ys, ws, _ = table[f]
                        ys.append(y_key)
                        ws.append(-p * v)
        return table

    def _column(self, n: int, sigma: Key) -> dict[Key, int]:
        """<boundary-tilde c, sigma> by the word of every unpaired cell c
        it is nonzero on, by walking gradient paths upward from sigma; c
        and sigma in face_form(n + 1, .), as the coface tables key them.

        The weight of sigma is 1 and each gradient edge (y, w) out of a
        cell z adds w times the weight of z to y; the walk's post-order,
        reversed, puts every cell after all cells with an edge into it.
        A pair's words share their letters but the raised top one, and a
        degenerate coface nets 0 on every nondegenerate face, so every cell
        the walk reaches has sigma's degeneracy: one coface table, built on
        first use, serves the walk.  A degenerate sigma has no column under
        normalized, whose boundary drops every degenerate face.
        """
        degenerate = is_degenerate_word(n, sigma)
        if degenerate and self.mode == "normalized":
            return {}
        table = self._edges.get((n, degenerate))
        if table is None:
            table = self._edges[n, degenerate] = self._coface_table(
                n, degenerate)
        order = _gradient_order(
            sigma, lambda z: table.get(z, _NO_EDGES)[0], {})
        weight = {sigma: 1}
        column = {}
        for z in reversed(order):
            h = weight.pop(z, 0)
            if not h:
                continue
            ys, ws, rest = table.get(z, _NO_EDGES)
            for y, w in zip(ys, ws):
                weight[y] = weight.get(y, 0) + w * h
            for w, v in rest:
                column[w] = column.get(w, 0) + v * h
        return {w: v for w, v in column.items() if v}

    def boundary_rows(self, cells: list[Simplex], basis: list[Simplex]) \
            -> list[dict[int, int]]:
        """<boundary-tilde cell, b> by the position of b in basis, nonzero
        entries only, for each cell of cells; cells and basis must be
        unpaired.

        Two reductions that share only the pairing and the incidences must
        agree at every basis cell: the forward one sums the projections G
        of the faces of a cell; the backward one reads the cell off one
        column per basis cell, built once per call by walking gradient
        paths upward from that cell.
        """
        for cell in cells:
            if not self.scope.covers(cell):
                raise TruncationError(
                    f"cell {cell} lies outside the flow scope {self.scope}",
                    dim=cell.dim, length=cell.length)
            if cell.dim == 0:
                raise ValueError("dimension-0 chains have no boundary")
            if basis and basis[0].dim != cell.dim - 1:
                raise ValueError(
                    f"a row of dimension-{cell.dim} cell {cell} reads "
                    f"dimension-{cell.dim - 1} cells, not {basis[0]}")
        if len({b.dim for b in basis}) > 1:
            raise ValueError("basis cells must share one dimension")
        for x in (*cells, *basis):
            if self.pairing.is_matched(x):
                raise ValueError(
                    f"{x} is matched, so it is no cell of the Morse complex")
        # the basis positions of each word and the columns as rows, keyed
        # in the face_form of the cells' dimension, as both routes give them
        index: dict[Key, list[int]] = {}
        backward = {face_form(c.dim, c.word): {} for c in cells}
        for j, sigma in enumerate(basis):
            key = face_form(sigma.dim + 1, sigma.word)
            index.setdefault(key, []).append(j)
            for w, v in self._column(sigma.dim, key).items():
                if w in backward:
                    backward[w][j] = v
        rows = []
        for cell in cells:
            memo = self._gradient[cell.dim - 1]
            forward: dict[Key, int] = {}
            for y, v in signed_faces(cell.dim, cell.word, self.mode).items():
                g = memo.get(y)  # _projection only on a miss
                if g is None:
                    g = self._projection(cell.dim - 1, y)
                for z, u in g.items():
                    forward[z] = forward.get(z, 0) + v * u
            row = {j: u for z, u in forward.items() if u
                   for j in index.get(z, ())}
            column = backward[face_form(cell.dim, cell.word)]
            if row != column:
                j = min((j for j in row.keys() | column.keys()
                         if row.get(j) != column.get(j)),
                        key=lambda j: sort_key(basis[j]))
                raise SelfCheckError(
                    f"gradient-path routes disagree at ({cell}, {basis[j]}): "
                    f"forward reduction gives {row.get(j, 0)}, backward "
                    f"reduction gives {column.get(j, 0)}")
            self.dual_route_checks += len(basis)
            rows.append(row)
        return rows

    def morse_boundary_entry(self, c: Simplex, sigma: Simplex) -> int:
        """<boundary-tilde c, sigma> via both reductions, asserted equal."""
        if c.dim != sigma.dim + 1:
            raise ValueError(
                f"entry needs c.dim = sigma.dim + 1, got {c.dim}, {sigma.dim}")
        for cell in (c, sigma):
            if not self.pairing.is_critical(cell):
                raise ValueError(f"{cell} is not critical; entries are only "
                                 f"defined between critical cells")
        return self.boundary_rows([c], [sigma])[0].get(0, 0)
