"""Command-line entry point.

Subcommands cover the full pipeline: enumerate strata, build and validate
steepness matchings, stabilize chains under the flow, print Morse boundary
slices, and compute homology with an optional length-stability scan.

Chain expressions use a small cell syntax: ``e`` (identity, needs --dim),
``y``/``y^4`` (powers of the degree-one generator), explicit words such as
``a3.a2.a2`` (ambient dimension defaults to the largest letter), and named
families ``sigma(5)``, ``tau(4)``, ``sigma~(4)``, ``tau~(5)``, ``beta(5,2)``.
Terms combine with ``+``/``-`` and integer scalars (``4·y`` or ``4*y``).

Exit codes: 0 success (all self-checks passed), 2 usage or parse error,
3 scope/truncation error, 4 validation failure, 5 internal self-check or
stabilization failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter
from typing import Iterable, Iterator, Optional, Sequence

from .chains import Chain, join_terms
from .errors import (ChainParseError, SelfCheckError, StabilizationError,
                     TruncationError)
from .flow import (FlowContext, beta_cell, sigma_cell, sigma_tilde_cell,
                   tau_cell, tau_tilde_cell, y_power)
from .homology import (build_slice, collector_paused, compute_homology,
                       critical_basis, morse_context, stability_scan)
from .pairing import (Matching, PairingFlags, Scope, SteepnessRule,
                      build_matching, check_dot_size, matching_to_dot,
                      validate_matching)
from .simplicial import (MAX_STRATUM_CELLS, Simplex, StratumKey,
                         check_stratum_size, degenerate_size, identity,
                         is_degenerate_word, line_blocks, simplex_text,
                         stratum_parts, stratum_size, stratum_table)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SCOPE = 3
EXIT_INVALID = 4
EXIT_SELF_CHECK = 5


# --- chain expression syntax ------------------------------------------------------

_TERM = re.compile(r"[+-]?[^+-]+")
_SCALAR = re.compile(r"(\d+)(?:\*|·)?(.*)\Z")
_POWER = re.compile(r"y\^(\d+)\Z")
_NAMED = re.compile(r"(sigma~?|tau~?)\((\d+)\)\Z")
_NAMED_CELLS = {"sigma": sigma_cell, "tau": tau_cell,
                "sigma~": sigma_tilde_cell, "tau~": tau_tilde_cell}
_BETA = re.compile(r"beta\((\d+),(\d+)\)\Z")
_WORD = re.compile(r"a\d+(?:\.a\d+)*\Z")


def _parse_cell(body: str, dim: Optional[int]) -> Simplex:
    if body == "e":
        if dim is None:
            raise ChainParseError("'e' needs an explicit --dim")
        return identity(dim)
    if body == "y":
        return y_power(1)
    m = _POWER.match(body)
    if m:
        return y_power(int(m.group(1)))
    m = _NAMED.match(body)
    if m:
        return _NAMED_CELLS[m.group(1)](int(m.group(2)))
    m = _BETA.match(body)
    if m:
        return beta_cell(int(m.group(1)), int(m.group(2)))
    if _WORD.match(body):
        letters = tuple(int(p[1:]) for p in body.split("."))
        return Simplex(dim if dim is not None else max(letters), letters)
    raise ChainParseError(f"unrecognized cell {body!r}")


def parse_chain(text: str, dim: Optional[int] = None) -> Chain:
    """Parse a chain expression; all terms must share one dimension."""
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise ChainParseError("empty chain expression")
    if compact == "0":
        if dim is None:
            raise ChainParseError("the zero chain needs an explicit --dim")
        return Chain.zero(dim)
    terms = _TERM.findall(compact)
    if "".join(terms) != compact:  # findall skips a sign with no term
        raise ChainParseError(f"stray sign in chain expression {text!r}")
    total: Optional[Chain] = None
    for term in terms:
        sign = 1
        if term[0] in "+-":
            sign = -1 if term[0] == "-" else 1
            term = term[1:]
        coef = sign
        m = _SCALAR.match(term)
        if m and m.group(2):
            coef, term = sign * int(m.group(1)), m.group(2)
        elif m:
            raise ChainParseError(f"scalar {m.group(1)!r} has no cell")
        try:
            cell = _parse_cell(term, dim)
            if dim is not None and cell.dim != dim:
                raise ChainParseError(
                    f"cell {term!r} has dimension {cell.dim}, not {dim}")
            piece = coef * Chain.unit(cell)
            total = piece if total is None else total + piece
        except ChainParseError:
            raise
        except ValueError as exc:
            raise ChainParseError(str(exc)) from exc
    return total


def render_cell(cell: Simplex) -> str:
    """Cell text for chain rendering; dimension-one words use y-powers."""
    if cell.dim == 1 and cell.word:
        return "y" if len(cell.word) == 1 else f"y^{len(cell.word)}"
    return simplex_text(cell)


def render_chain(chain: Chain) -> str:
    """Deterministic text for a chain; round-trips through parse_chain."""
    return join_terms([(render_cell(x), c) for x, c in chain.items()], "·")


# --- output plumbing --------------------------------------------------------------

def _emit(ns: argparse.Namespace, payload: str | Iterable[str]) -> None:
    """Write payload to --output or stdout: a string in one write, given a
    final newline if it lacks one, or blocks that each end in a newline,
    each written as it arrives."""
    if isinstance(payload, str):
        payload = [payload if payload.endswith("\n") else payload + "\n"]
    if getattr(ns, "output", None):
        with open(ns.output, "w", encoding="utf-8") as fh:
            for block in payload:
                fh.write(block)
    else:
        for block in payload:
            sys.stdout.write(block)


def _note(message: str) -> None:
    if os.environ.get("FKMORSE_VERBOSE"):
        sys.stderr.write(message + "\n")


def _flags_from(ns: argparse.Namespace) -> PairingFlags:
    return PairingFlags(degenerate_policy=ns.degenerate_policy)


# --- subcommands ------------------------------------------------------------------

def cmd_enumerate(ns: argparse.Namespace) -> int:
    StratumKey(ns.dim, ns.length)  # reject ill-formed strata up front
    check_stratum_size(ns.dim, ns.length)
    if ns.format == "json":
        texts, degenerate = stratum_table(ns.dim, ns.length)
        payload = json.dumps(
            {"dim": ns.dim, "length": ns.length,
             "cells": [{"rank": r, "word": w, "degenerate": d}
                       for r, (w, d) in enumerate(zip(texts, degenerate))]},
            separators=(",", ":"))
    else:
        sep, marks = ",", ("false", "true")
        head = "rank,simplex,degenerate"
        if ns.format == "text":
            sep, marks = "\t", ("nondegenerate", "degenerate")
            size = stratum_size(ns.dim, ns.length)
            head = (f"# stratum dim={ns.dim} length={ns.length}: {size} "
                    f"cells, {size - degenerate_size(ns.dim, ns.length)} "
                    f"nondegenerate")
        payload = line_blocks(_stratum_lines(head, sep, marks, ns.dim,
                                             ns.length))
    _emit(ns, payload)
    return EXIT_OK


def _stratum_lines(head: str, sep: str, marks: tuple[str, str], dim: int,
                   length: int) -> Iterator[list[str]]:
    """head, then the rank, text and mark of each word of stratum
    (dim, length), split by sep, in the parts of stratum_parts; marks
    holds the nondegenerate mark, then the degenerate one."""
    yield [head]
    rank = 0
    for texts, degenerate in stratum_parts(dim, length):
        yield [f"{r}{sep}{t}{sep}{marks[d]}"
               for r, (t, d) in enumerate(zip(texts, degenerate), rank)]
        rank += len(texts)


def cmd_pair(ns: argparse.Namespace) -> int:
    if ns.format == "dot":
        check_dot_size(Scope(ns.max_dim, ns.max_length))
    matching, report = build_matching(ns.max_dim, ns.max_length,
                                      _flags_from(ns))
    _note(f"built {len(matching)} pairs")
    if ns.format == "json":
        payload = matching.to_json()
    elif ns.format == "dot":
        payload = matching_to_dot(matching)
    elif ns.format == "csv":
        payload = report.to_csv()
    else:
        lines = [f"scope: max_dim={ns.max_dim} max_length={ns.max_length}",
                 "flags: face={face_quantifier} coface={coface_quantifier} "
                 "degenerate={degenerate_policy}".format(
                     **matching.flags.to_json_dict()),
                 f"pairs: {len(matching)}"]
        fiat = matching.flags.degenerate_policy == "critical"
        # the top stratum is not walked: its critical cells are its words
        # less the upper words of pairs, each kind counted apart; under
        # critical no pair holds a degenerate word
        top = ns.max_dim
        raised = Counter((len(tw), is_degenerate_word(top, tw))
                         for n, _, tw in matching.word_pairs if n == top - 1)
        for n, length in matching.scope.strata():
            deg = degenerate_size(n, length)
            if n == top:
                unmatched = stratum_size(n, length) - deg - \
                    raised[length, False]
                deg -= raised[length, True]
            else:
                words = report.unmatched_words(n, length)
                unmatched = len(words)
                if not fiat:  # the walk kept the unmatched degenerate words
                    deg = sum(is_degenerate_word(n, w) for w in words)
                    unmatched -= deg
            if deg or unmatched:
                lines.append(f"stratum dim={n} length={length}: "
                             f"{unmatched} critical nondegenerate, "
                             f"{deg} degenerate unmatched")
        payload = "\n".join(lines)
    _emit(ns, payload)
    return EXIT_OK


def cmd_validate(ns: argparse.Namespace) -> int:
    with open(ns.matching, "r", encoding="utf-8") as fh:
        matching = Matching.from_json(fh.read())
    verdict = validate_matching(matching)
    lines = [f"matching: {len(matching)} pairs, "
             f"scope max_dim={matching.scope.max_dim} "
             f"max_length={matching.scope.max_length}",
             "strata checked: " + " ".join(
                 f"({key.dim},{key.length})"
                 for key in verdict.strata_checked),
             f"verdict: {'ok' if verdict.ok else 'INVALID'}"]
    for err in verdict.errors:
        lines.append(f"error: {err}")
    if verdict.cycle:
        lines.append("cycle: " + " -> ".join(simplex_text(x)
                                             for x in verdict.cycle))
    _emit(ns, "\n".join(lines))
    return EXIT_OK if verdict.ok else EXIT_INVALID


def cmd_flow(ns: argparse.Namespace) -> int:
    chain = parse_chain(ns.chain, ns.dim)
    max_len = max([len(c.word) for c in chain.support()] or [0])
    max_length = max(1, max_len) if ns.max_length is None else ns.max_length
    max_dim = max(1, chain.dim + 1) if ns.max_dim is None else ns.max_dim
    rule = SteepnessRule(_flags_from(ns))
    ctx = FlowContext(rule, Scope(max_dim, max_length), ns.mode)
    stable, iterations = ctx.stabilize(chain)
    _note(f"stabilized in {iterations} iterations")
    if ns.format == "json":
        payload = stable.to_json()
    else:
        payload = render_chain(stable)
    _emit(ns, payload)
    return EXIT_OK


def cmd_morse(ns: argparse.Namespace) -> int:
    if ns.degree < 1:
        raise ValueError("--degree must be >= 1")
    with collector_paused():
        ctx, report, _ = morse_context(ns.degree - 1, ns.max_length,
                                       _flags_from(ns), ns.mode)
        # every format but an all-zero text report prints each field of the
        # dense matrix, so a slice with too many is refused before any row
        rows, cols = (len(critical_basis(report, d, ns.max_length))
                      for d in (ns.degree, ns.degree - 1))
        if rows * cols > MAX_STRATUM_CELLS:
            raise TruncationError(
                f"the degree-{ns.degree} slice holds {rows} x {cols} = "
                f"{rows * cols} fields, over the limit of {MAX_STRATUM_CELLS}")
        slc = build_slice(ctx, report, ns.degree)
    _note(f"{ctx.dual_route_checks} boundary entries double-checked")
    if ns.format == "json":
        payload = slc.to_json()
    elif ns.format == "csv":
        payload = slc.to_csv()
    else:
        lines = [f"degree {slc.degree} boundary: "
                 f"{len(slc.basis_hi)} x {len(slc.basis_lo)} "
                 f"(rows: critical {slc.degree}-cells, "
                 f"cols: critical {slc.degree - 1}-cells)"]
        if not any(slc.rows):
            lines.append("all entries zero")
        else:
            lines.append(slc.to_csv().rstrip("\n"))
        payload = "\n".join(lines)
    _emit(ns, payload)
    return EXIT_OK


def cmd_homology(ns: argparse.Namespace) -> int:
    flags = _flags_from(ns)
    if ns.scan:
        lo, hi = ns.scan
        if lo > hi:
            raise ValueError(f"--scan LO HI needs LO <= HI, got {lo} > {hi}")
        scan = stability_scan(ns.degree, lo, hi, flags, ns.mode)
        if ns.format == "json":
            payload = scan.to_json()
        else:
            lines = [r.to_json() for r in scan.results]
            lines.append(f"stable_from: {scan.stable_from}")
            payload = "\n".join(lines)
    else:
        result = compute_homology(ns.degree, ns.max_length, flags, ns.mode)
        payload = result.to_json()
    _emit(ns, payload)
    return EXIT_OK


# --- argument parsing -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fkmorse",
        description="Discrete Morse theory on the free simplicial monoid "
                    "model of the loop space of the 2-sphere.")
    sub = parser.add_subparsers(dest="command", required=True)

    flags_parent = argparse.ArgumentParser(add_help=False)
    flags_parent.add_argument("--degenerate-policy",
                              choices=("critical", "allow"),
                              default="critical")

    mode_parent = argparse.ArgumentParser(add_help=False)
    mode_parent.add_argument("--mode",
                             choices=("unnormalized", "normalized"),
                             default="unnormalized")

    out_parent = argparse.ArgumentParser(add_help=False)
    out_parent.add_argument("--output", help="write the result to a file")

    p_enum = sub.add_parser("enumerate", parents=[out_parent],
                            help="list one stratum with degeneracy flags")
    p_enum.add_argument("--dim", type=int, required=True)
    p_enum.add_argument("--length", type=int, required=True)
    p_enum.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    p_enum.set_defaults(func=cmd_enumerate)

    p_pair = sub.add_parser("pair", parents=[flags_parent, out_parent],
                            help="build the steepness matching on a scope")
    p_pair.add_argument("--max-dim", type=int, required=True)
    p_pair.add_argument("--max-length", type=int, required=True)
    p_pair.add_argument("--format", choices=("text", "json", "csv", "dot"),
                        default="text")
    p_pair.set_defaults(func=cmd_pair)

    p_val = sub.add_parser("validate", parents=[out_parent],
                           help="check a matching export for regularity, "
                                "injectivity, and acyclicity")
    p_val.add_argument("--matching", required=True,
                       help="path to a matching JSON export")
    p_val.add_argument("--format", choices=("text",), default="text")
    p_val.set_defaults(func=cmd_validate)

    p_flow = sub.add_parser("flow",
                            parents=[flags_parent, mode_parent, out_parent],
                            help="stabilize a chain under the Morse flow")
    p_flow.add_argument("--chain", required=True,
                        help="chain expression, e.g. 'y^4' or 'sigma(3)'")
    p_flow.add_argument("--dim", type=int,
                        help="ambient dimension for 'e', '0', and words")
    p_flow.add_argument("--max-dim", type=int)
    p_flow.add_argument("--max-length", type=int)
    p_flow.add_argument("--format", choices=("text", "json"), default="text")
    p_flow.set_defaults(func=cmd_flow)

    p_morse = sub.add_parser("morse",
                             parents=[flags_parent, mode_parent, out_parent],
                             help="print one Morse boundary slice")
    p_morse.add_argument("--degree", type=int, required=True)
    p_morse.add_argument("--max-length", type=int, required=True)
    p_morse.add_argument("--format", choices=("text", "json", "csv"),
                         default="text")
    p_morse.set_defaults(func=cmd_morse)

    p_hom = sub.add_parser("homology",
                           parents=[flags_parent, mode_parent, out_parent],
                           help="integer homology of the truncated Morse "
                                "complex")
    p_hom.add_argument("--degree", type=int, required=True)
    bound = p_hom.add_mutually_exclusive_group(required=True)
    bound.add_argument("--max-length", type=int)
    bound.add_argument("--scan", type=int, nargs=2, metavar=("LO", "HI"),
                       help="compute homology at every bound in LO..HI")
    p_hom.add_argument("--format", choices=("text", "json"), default="text")
    p_hom.set_defaults(func=cmd_homology)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return ns.func(ns)
    except ChainParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except TruncationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SCOPE
    except (SelfCheckError, StabilizationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SELF_CHECK
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
