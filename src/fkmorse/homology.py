"""Integer homology of truncated Morse complexes via Smith normal form.

Slices hold the Morse boundary between critical cells of adjacent degrees,
restricted to word length <= L.  The boundary never increases word length,
so each truncation is honestly closed under the boundary; the stability
scan probes how the answer depends on L.

Slice bases use the nondegenerate critical cells: the degenerate cells form
an acyclic subcomplex the flow never moves, so dropping them changes no
homology and keeps the low-degree boundary matrices identically zero.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterator, Optional

from .errors import SelfCheckError
from .flow import FlowContext, check_mode
# build_matching is called nowhere here: bench/test_bench.py reads it here
from .pairing import (CriticalReport, DEFAULT_FLAGS, PairingFlags, Scope,
                      SteepnessRule, build_matching)
from .simplicial import Simplex, check_stratum_size, simplex_text

Matrix = list[list[int]]


# --- exact Smith normal form ----------------------------------------------------

@dataclass(frozen=True)
class SnfResult:
    rank: int
    invariant_factors: list[int]
    diagonal: Optional[Matrix] = None
    left: Optional[Matrix] = None
    right: Optional[Matrix] = None


def _identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _integer(i: int, j: int, v: object) -> int:
    """Entry (i, j) as an int: refused unless it is one, not truncated; a
    bool counts as 0 or 1."""
    if not isinstance(v, int):
        raise TypeError(f"matrix entry {v!r} at ({i}, {j}) is not an integer")
    return int(v)


def smith_normal_form(matrix: Matrix, transforms: bool = False) -> SnfResult:
    """Diagonalize over the integers; factors form a divisibility chain.

    Both routes give the same rank and factors and refuse a non-integer
    entry with TypeError (the sparse one checks the entries it keeps, the
    nonzero ones); only transforms=True builds the diagonal:

    * transforms=False (sparse): reduce the rows, as row dicts, to an
      echelon of +-1 pivot rows by exact integer row updates
      (_unit_echelon); only the residue left over goes through the dense
      elimination.  Every pivot contributes an invariant factor 1.  Morse
      slices are sparse with +-1 entries, so the residue is small.
    * transforms=True (dense, the certificate route): min-abs-pivot
      elimination on the whole matrix, carrying unimodular certificates
      with left * matrix * right equal to the diagonal, exactly.
    """
    cols = len(matrix[0]) if matrix else 0
    if any(len(r) != cols for r in matrix):
        raise ValueError("ragged matrix")
    if transforms:
        return _dense_snf([[_integer(i, j, v) for j, v in enumerate(row)]
                           for i, row in enumerate(matrix)], transforms=True)
    pivots, residue = _unit_echelon(
        [{j: _integer(i, j, v) for j, v in enumerate(row) if v}
         for i, row in enumerate(matrix)])
    factors = [1] * pivots + _dense_snf(residue).invariant_factors
    return SnfResult(rank=len(factors), invariant_factors=factors)


def _unit_echelon(rows: list[dict[int, int]]) -> tuple[int, Matrix]:
    """Reduce rows to +-1 pivot rows: their number and the dense residue.

    Each row, {column: nonzero entry}, is copied and reduced against the
    pivot rows kept so far, earliest pivot first.  If it holds a +-1 it
    becomes a pivot row on its largest +-1 column, the lower cell last in
    (length, word) order, so no pivot row holds an earlier pivot's column.
    A zero row is dropped and any other is set aside; the set-aside rows
    are passed over again until a pass keeps no new pivot.  Each step is a
    unimodular row operation, so the rows are equivalent to one 1 per pivot
    beside the residue.  rows itself is left as it is.
    """
    serial: dict[int, int] = {}  # pivot column -> its place among pivots
    pivots: list[tuple[int, dict[int, int]]] = []
    aside = rows
    grew = True
    while grew:
        grew = False
        rest, aside = aside, []
        for row in rest:
            row = dict(row)
            todo = sorted([serial[j] for j in row if j in serial])  # a heap
            while todo:
                q, prow = pivots[heappop(todo)]
                f = row.get(q)
                if not f:
                    continue  # cleared since it was queued
                f *= prow[q]  # prow[q] is +-1, its own inverse
                for j, v in prow.items():
                    w = row.get(j, 0) - f * v
                    if w:
                        if j not in row and j in serial:
                            heappush(todo, serial[j])  # a later pivot
                        row[j] = w
                    else:
                        del row[j]
            units = [j for j, v in row.items() if v == 1 or v == -1]
            if units:
                serial[max(units)] = len(pivots)
                pivots.append((max(units), row))
                grew = True
            elif row:
                aside.append(row)
    cols = sorted({j for row in aside for j in row})
    return len(pivots), [[row.get(j, 0) for j in cols] for row in aside]


def _dense_snf(a: Matrix, transforms: bool = False) -> SnfResult:
    """Min-abs-pivot elimination of a, in place, on the whole matrix.

    With transforms, each row carries its row of left as extra columns and
    right sits below as extra rows, so every row step and column step moves
    the certificates with the matrix; they are split off at the end."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if transforms:
        for row, unit in zip(a, _identity_matrix(rows)):
            row.extend(unit)
        a.extend(_identity_matrix(cols))

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
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]

        while True:
            # clear column t, then row t; smaller remainders become pivots
            dirty = False
            for i in range(rows):
                if i != t and a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            if dirty:
                continue
            for j in range(cols):
                if j != t and a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
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
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1

    factors = [a[k][k] for k in range(t)]
    if not transforms:
        return SnfResult(rank=t, invariant_factors=factors, diagonal=a)
    return SnfResult(rank=t, invariant_factors=factors,
                     diagonal=[row[:cols] for row in a[:rows]],
                     left=[row[cols:] for row in a[:rows]], right=a[rows:])


# --- Morse slices ----------------------------------------------------------------

@dataclass(frozen=True)
class MorseSlice:
    """The Morse boundary from critical degree-d cells to degree d-1.

    rows[i][j] is the nonzero entry of basis_hi[i] against basis_lo[j];
    bases are sorted by word length then lexicographically.
    """

    degree: int
    basis_lo: list[Simplex]
    basis_hi: list[Simplex]
    rows: list[dict[int, int]]
    scope: Scope

    def to_json(self) -> str:
        return json.dumps(
            {"degree": self.degree,
             "scope": self.scope.to_json_dict(),
             "rows": [simplex_text(x) for x in self.basis_hi],
             "cols": [simplex_text(x) for x in self.basis_lo],
             "matrix": [[row.get(j, 0) for j in range(len(self.basis_lo))]
                        for row in self.rows]},
            separators=(",", ":"))

    def to_csv(self) -> str:
        header = "simplex," + ",".join(simplex_text(x) for x in self.basis_lo)
        lines = [header]
        for x, row in zip(self.basis_hi, self.rows):
            lines.append(simplex_text(x) + "," + ",".join(
                str(row.get(j, 0)) for j in range(len(self.basis_lo))))
        return "\n".join(lines) + "\n"


def critical_basis(report: CriticalReport, dim: int, max_length: int) \
        -> list[Simplex]:
    """Nondegenerate critical cells of one dimension, in stratum order,
    which is (length, word) order."""
    return [x for length in range(max_length + 1 if dim else 1)
            for x in report.unmatched_nondegenerate(dim, length)]


def build_slice(ctx: FlowContext, report: CriticalReport, degree: int) \
        -> MorseSlice:
    """All entries of one boundary degree, with the exchange check per cell."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    scope = ctx.scope
    hi = critical_basis(report, degree, scope.max_length)
    lo = critical_basis(report, degree - 1, scope.max_length) if degree else []
    rows = ctx.boundary_rows(hi, lo) if degree else [{} for _ in hi]
    return MorseSlice(degree=degree, basis_lo=lo, basis_hi=hi,
                      rows=rows, scope=scope)


# --- homology ---------------------------------------------------------------------

@dataclass(frozen=True)
class HomologyResult:
    degree: int
    max_length: int
    betti: int
    torsion: list[int]

    def to_json(self) -> str:
        return json.dumps(
            {"degree": self.degree,
             "scope": {"max_length": self.max_length},
             "betti": self.betti,
             "torsion": self.torsion},
            separators=(",", ":"))


def _compose_is_zero(lo: MorseSlice, hi: MorseSlice) -> bool:
    # rows of hi are (d+1)-cells; composing means boundary twice.  The
    # middle bases are equal, so column k of hi meets row k of lo
    for row in hi.rows:
        acc: dict[int, int] = {}
        for k, coef in row.items():
            for j, v in lo.rows[k].items():
                acc[j] = acc.get(j, 0) + coef * v
        if any(acc.values()):
            return False
    return True


def homology_of_slices(lo: MorseSlice, hi: MorseSlice) -> HomologyResult:
    """H_d from the slice below (degree d) and above (degree d+1)."""
    if hi.degree != lo.degree + 1:
        raise ValueError("slices must sit at consecutive degrees")
    if hi.scope != lo.scope:
        raise ValueError("slices were built under different scopes")
    if hi.basis_lo != lo.basis_hi:
        raise ValueError("slices disagree on the middle critical basis")
    if lo.degree > 0 and not _compose_is_zero(lo, hi):
        raise SelfCheckError(
            f"boundary squared is nonzero between degrees {hi.degree} and "
            f"{lo.degree - 1}")
    # smith_normal_form takes a dense matrix, so only the residue goes there
    pivots_lo, residue_lo = _unit_echelon(lo.rows)
    rank_lo = pivots_lo + smith_normal_form(residue_lo).rank
    pivots_hi, residue_hi = _unit_echelon(hi.rows)
    snf_hi = smith_normal_form(residue_hi)
    betti = len(lo.basis_hi) - rank_lo - pivots_hi - snf_hi.rank
    torsion = [f for f in snf_hi.invariant_factors if f not in (0, 1)]
    return HomologyResult(degree=lo.degree, max_length=lo.scope.max_length,
                          betti=betti, torsion=torsion)


@contextmanager
def collector_paused() -> Iterator[None]:
    """The body with the cyclic garbage collector disabled; the caller's
    setting is put back on return and on an exception."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def morse_context(degree: int, max_length: int,
                  flags: PairingFlags = DEFAULT_FLAGS,
                  mode: str = "unnormalized") \
        -> tuple[FlowContext, CriticalReport, SteepnessRule]:
    """Flow context and critical report on the steepness rule, wide enough
    for degree-d homology.  Every stratum of the scope, up to dimension
    d + 2, is size-checked before any word is walked."""
    check_mode(mode, flags)
    scope = Scope(degree + 2, max_length)
    for n, length in scope.strata():
        check_stratum_size(n, length)
    rule = SteepnessRule(flags)
    return FlowContext(rule, scope, mode), CriticalReport(rule, scope), rule


def compute_homology(degree: int, max_length: int,
                     flags: PairingFlags = DEFAULT_FLAGS,
                     mode: str = "unnormalized") -> HomologyResult:
    return stability_scan(degree, max_length, max_length, flags,
                          mode).results[0]


@dataclass(frozen=True)
class StabilityScan:
    degree: int
    results: list[HomologyResult] = field(default_factory=list)
    stable_from: Optional[int] = None

    def to_json(self) -> str:
        return json.dumps(
            {"degree": self.degree,
             "results": [json.loads(r.to_json()) for r in self.results],
             "stable_from": self.stable_from},
            separators=(",", ":"))


def _leading_block(slc: MorseSlice, max_length: int) -> MorseSlice:
    """The slice at a smaller bound: the cells of word length <= max_length
    lead each basis, which is sorted by length.  Faces never raise word
    length, so the rows of those cells hold no column past the block."""
    rows = sum(1 for x in slc.basis_hi if x.length <= max_length)
    cols = sum(1 for x in slc.basis_lo if x.length <= max_length)
    return MorseSlice(slc.degree, slc.basis_lo[:cols], slc.basis_hi[:rows],
                      slc.rows[:rows], Scope(slc.scope.max_dim, max_length))


def stability_scan(degree: int, length_lo: int, length_hi: int,
                   flags: PairingFlags = DEFAULT_FLAGS,
                   mode: str = "unnormalized") -> StabilityScan:
    """Homology at every bound in the range; smallest bound after which the
    (betti, torsion) answer stays constant through the end of the range.

    One pair of slices is built, at length_hi, on the steepness rule.
    Faces never raise word length and pairs stay inside a stratum, so the
    slices at a bound L are their leading blocks of length <= L.  The
    cyclic collector is paused throughout: the scan makes no reference
    cycles, so reference counting frees all it drops, and the collector
    would only walk the memos and slices again and again."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if length_lo > length_hi:
        return StabilityScan(degree=degree)
    Scope(degree + 2, length_lo)  # refuses a bound below 1 before building
    with collector_paused():
        ctx, report = morse_context(degree, length_hi, flags, mode)[:2]
        lo = build_slice(ctx, report, degree)
        hi = build_slice(ctx, report, degree + 1)
        # the report's bases and the flow's memos are freed here: the
        # Smith normal forms need neither
        del ctx, report
        results = [homology_of_slices(_leading_block(lo, L),
                                      _leading_block(hi, L))
                   for L in range(length_lo, length_hi + 1)]
    last = (results[-1].betti, results[-1].torsion)
    stable_from = length_hi
    for k in range(len(results) - 1, -1, -1):
        if (results[k].betti, results[k].torsion) != last:
            break
        stable_from = length_lo + k
    return StabilityScan(degree=degree, results=results,
                         stable_from=stable_from)
