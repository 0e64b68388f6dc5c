"""Command-line interface: parsing, rendering, subcommands, exit codes.

Each subcommand is run in-process through main() so exit codes and exact
stdout bytes can be asserted without spawning subprocesses.
"""

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from fkmorse import pairing
from fkmorse.chains import Chain
from fkmorse.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_SCOPE,
    EXIT_SELF_CHECK,
    EXIT_USAGE,
    ChainParseError,
    main,
    parse_chain,
    render_cell,
    render_chain,
)
from fkmorse.errors import SelfCheckError, StabilizationError
from fkmorse.flow import (FlowContext, beta_cell, sigma_cell,
                          sigma_tilde_cell, tau_cell, tau_tilde_cell, y_power)
from fkmorse.homology import stability_scan
from fkmorse.pairing import (Matching, PairingFlags, Scope, SteepnessRule,
                             build_matching)
from fkmorse.simplicial import (Simplex, degenerate_size, enumerate_stratum,
                                is_degenerate, is_degenerate_word,
                                stratum_words)

from routes import Unvalidated

S = Simplex


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- the import path ------------------------------------------------------------------

# What importing fkmorse.cli may load beyond a fresh interpreter's own
# modules: each name with its submodules and its C accelerator (_json for
# json), and the fkmorse modules.  Every start of the command pays for what
# it imports, so a module that joins the list is a cost to every job.
CLI_IMPORTS = {"__future__", "argparse", "ast", "copy", "dataclasses", "dis",
               "gc", "gettext", "heapq", "importlib.machinery", "inspect",
               "json", "linecache", "opcode", "token", "tokenize", "fkmorse"}


def test_importing_the_cli_loads_no_module_beyond_todays_set():
    code = ("import json, sys; before = set(sys.modules); "
            "import fkmorse.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    loaded = json.loads(done.stdout)
    assert "fkmorse.cli" in loaded
    # a subset check: an interpreter that loads fewer modules passes
    assert [m for m in loaded if m not in CLI_IMPORTS and
            m.lstrip("_") not in CLI_IMPORTS and
            m.partition(".")[0] not in CLI_IMPORTS] == []


# --- chain expression parsing --------------------------------------------------------

def test_parse_atoms():
    assert parse_chain("y^4") == Chain.unit(y_power(4))
    assert parse_chain("y") == Chain.unit(y_power(1))
    assert parse_chain("sigma(3)") == Chain.unit(sigma_cell(3))
    assert parse_chain("sigma~(3)") == Chain.unit(sigma_tilde_cell(3))
    assert parse_chain("tau(4)") == Chain.unit(tau_cell(4))
    assert parse_chain("tau~(4)") == Chain.unit(tau_tilde_cell(4))
    assert parse_chain("beta(3,2)") == Chain.unit(beta_cell(3, 2))
    assert parse_chain("a2.a1") == Chain.unit(S(2, (2, 1)))
    assert parse_chain("a2.a1", dim=3) == Chain.unit(S(3, (2, 1)))
    assert parse_chain("e", dim=2) == Chain.unit(S(2, ()))
    assert parse_chain("0", dim=2) == Chain.zero(2)


def test_parse_scalars_signs_and_whitespace():
    expected = 2 * Chain.unit(y_power(2)) - 3 * Chain.unit(y_power(1))
    assert parse_chain("2*y^2 - 3*y") == expected
    assert parse_chain("2·y^2 - 3·y") == expected
    assert parse_chain("  2*y^2-3*y ") == expected
    assert parse_chain("-y + 2*y") == Chain.unit(y_power(1))
    assert parse_chain("y - y", dim=1).is_zero()


@pytest.mark.parametrize("text,fragment", [
    ("e", "--dim"),
    ("0", "--dim"),
    ("y + a2.a1", "dimensions 1 and 2"),
    ("y^", "unrecognized"),
    ("zeta(3)", "unrecognized"),
    ("", "empty"),
    ("y--y", "stray sign"),
    ("y-", "stray sign"),
    ("++y", "stray sign"),
    ("--y", "stray sign"),
    ("-", "stray sign"),
    ("+", "stray sign"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ChainParseError, match=fragment):
        parse_chain(text)


def test_render_cell_prefers_power_notation():
    assert render_cell(y_power(1)) == "y"
    assert render_cell(y_power(3)) == "y^3"
    assert render_cell(S(2, (2, 1))) == "a2.a1"
    assert render_cell(S(2, ())) == "e"


def test_render_parse_round_trip():
    chains = [
        4 * Chain.unit(y_power(1)),
        Chain.unit(sigma_cell(3)) - Chain.unit(sigma_tilde_cell(3)),
        Chain.unit(S(2, (1, 2))) - 2 * Chain.unit(S(2, (2, 1))),
        Chain.zero(2),
        Chain.unit(S(2, ())),
    ]
    for chain in chains:
        assert parse_chain(render_chain(chain), dim=chain.dim) == chain
    assert render_chain(4 * Chain.unit(y_power(1))) == "4·y"


# --- enumerate -----------------------------------------------------------------------

def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--dim", "2", "--length", "2")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "# stratum dim=2 length=2: 4 cells, 2 nondegenerate",
        "0\ta1.a1\tdegenerate",
        "1\ta1.a2\tnondegenerate",
        "2\ta2.a1\tnondegenerate",
        "3\ta2.a2\tdegenerate",
    ]


def test_enumerate_json_round_trip(capsys):
    code, out, _ = run(capsys, "enumerate", "--dim", "2", "--length", "2",
                       "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == {"dim": 2, "length": 2, "cells": [
        {"rank": 0, "word": "a1.a1", "degenerate": True},
        {"rank": 1, "word": "a1.a2", "degenerate": False},
        {"rank": 2, "word": "a2.a1", "degenerate": False},
        {"rank": 3, "word": "a2.a2", "degenerate": True},
    ]}


def test_enumerate_rejects_impossible_stratum(capsys):
    code, _, err = run(capsys, "enumerate", "--dim", "0", "--length", "2")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_enumerate_missing_arguments(capsys):
    code, _, _ = run(capsys, "enumerate", "--dim", "2")
    assert code == EXIT_USAGE


def test_enumerate_refuses_a_stratum_over_the_cell_limit(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "--dim", "9", "--length", "9")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_SCOPE
    assert out == ""
    assert "387420489 cells, over the limit of 2000000" in err


def _simplex_enumeration(dim, length, fmt):
    """The former rendering of enumerate: one validated Simplex per word,
    its degeneracy by is_degenerate and its text letter by letter."""
    rows = [(r, ".".join(f"a{k}" for k in c.word) or "e", is_degenerate(c))
            for r, c in enumerate(enumerate_stratum(dim, length))]
    if fmt == "json":
        return json.dumps(
            {"dim": dim, "length": length,
             "cells": [{"rank": r, "word": w, "degenerate": d}
                       for r, w, d in rows]},
            separators=(",", ":")) + "\n"
    if fmt == "csv":
        return "\n".join(["rank,simplex,degenerate"] + [
            f"{r},{w},{str(d).lower()}" for r, w, d in rows]) + "\n"
    nondeg = sum(1 for _, _, d in rows if not d)
    return "\n".join(
        [f"# stratum dim={dim} length={length}: {len(rows)} cells, "
         f"{nondeg} nondegenerate"]
        + [f"{r}\t{w}\t{'degenerate' if d else 'nondegenerate'}"
           for r, w, d in rows]) + "\n"


# (2, 9) and (2, 10), (3, 5) and (3, 6) straddle the first split of the
# stratum walk into heads and tails of at most 2^9 words; (2, 15) holds
# 2^6 parts and 32 blocks; in (600, 1) one letter is more than a tail may
# hold, so the tail holds the stratum.
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("dim,length", [(1, 1), (3, 3), (4, 4), (0, 0),
                                        (1, 0), (3, 4), (5, 6), (2, 9),
                                        (2, 10), (3, 5), (3, 6), (2, 15),
                                        (600, 1)])
def test_enumerate_prints_what_the_simplex_rendering_printed(capsys, dim,
                                                             length, fmt):
    code, out, _ = run(capsys, "enumerate", "--dim", str(dim),
                       "--length", str(length), "--format", fmt)
    assert code == EXIT_OK
    assert out == _simplex_enumeration(dim, length, fmt)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("dim,length", [(0, 0), (2, 10), (3, 6), (5, 6)])
def test_enumerate_writes_the_same_bytes_to_output(capsys, tmp_path, dim,
                                                   length, fmt):
    target = tmp_path / f"stratum.{fmt}"
    code, out, _ = run(capsys, "enumerate", "--dim", str(dim), "--length",
                       str(length), "--format", fmt, "--output", str(target))
    assert code == EXIT_OK and out == ""
    assert target.read_text(encoding="utf-8") == \
        _simplex_enumeration(dim, length, fmt)


# --- pair ----------------------------------------------------------------------------

def test_pair_text_summary(capsys):
    code, out, _ = run(capsys, "pair", "--max-dim", "3", "--max-length", "3")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "scope: max_dim=3 max_length=3"
    assert lines[1] == "flags: face=all coface=regular degenerate=critical"
    assert lines[2] == "pairs: 5"
    assert "stratum dim=2 length=3: 2 critical nondegenerate, " \
        "2 degenerate unmatched" in lines


def test_pair_json_reimports_as_a_matching(capsys):
    code, out, _ = run(capsys, "pair", "--max-dim", "3", "--max-length", "3",
                       "--format", "json")
    assert code == EXIT_OK
    clone = Matching.from_json(out)
    reference, _ = build_matching(3, 3)
    assert clone.pairs == reference.pairs
    assert clone.scope == reference.scope
    assert clone.flags == reference.flags


def test_pair_dot_marks_three_reversed_edges_in_the_top_stratum(capsys):
    code, out, _ = run(capsys, "pair", "--max-dim", "3", "--max-length", "3",
                       "--format", "dot")
    assert code == EXIT_OK
    cluster = out[out.index("cluster_2_3"):]
    red = [ln for ln in cluster.splitlines() if "color=red" in ln]
    assert len(red) == 3
    assert '    "d2:a1.a2.a2" -> "d3:a1.a2.a3" [color=red, penwidth=2];' in red
    assert '    "d2:a2.a1.a2" -> "d3:a2.a1.a3" [color=red, penwidth=2];' in red
    assert '    "d2:a2.a2.a1" -> "d3:a2.a3.a1" [color=red, penwidth=2];' in red


@pytest.mark.parametrize("policy", ["critical", "allow"])
@pytest.mark.parametrize("max_dim,max_length", [(3, 3), (4, 4), (3, 5)])
def test_pair_text_summary_counts_what_the_report_lists(capsys, max_dim,
                                                        max_length, policy):
    code, out, _ = run(capsys, "pair", "--max-dim", str(max_dim),
                       "--max-length", str(max_length),
                       "--degenerate-policy", policy)
    assert code == EXIT_OK
    _, report = build_matching(max_dim, max_length,
                               PairingFlags(degenerate_policy=policy))
    # under allow no cell is degenerate by fiat, and the unmatched words
    # are counted apart by their own degeneracy
    expected = []
    for key, (deg, unmatched) in sorted(
            report.strata.items(),
            key=lambda item: (item[0].dim, item[0].length)):
        split = sum(is_degenerate_word(x.dim, x.word) for x in unmatched)
        expected.append(f"stratum dim={key.dim} length={key.length}: "
                        f"{len(unmatched) - split} critical nondegenerate, "
                        f"{len(deg) + split} degenerate unmatched")
    assert out.splitlines()[3:] == expected


def test_the_allow_pair_report_marks_degenerate_words(capsys):
    # under allow, degenerate words go unmatched without being critical by
    # fiat: the CSV marks each from its word, and the text counts them
    # apart from the nondegenerate ones
    argv = ["pair", "--max-dim", "2", "--max-length", "2",
            "--degenerate-policy", "allow"]
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "dim,length,simplex,degenerate,reason",
        "0,0,e,false,no-regular-coface",
        "1,0,e,true,no-regular-coface",
        "1,1,a1,false,no-regular-coface",
        "2,0,e,true,upward-undecided",
        "2,1,a1,true,upward-undecided",
        "2,1,a2,true,upward-undecided",
        "2,2,a1.a1,true,upward-undecided",
        "2,2,a2.a1,false,upward-undecided",
        "2,2,a2.a2,true,upward-undecided"]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out.splitlines()[3:] == [
        f"stratum dim={n} length={length}: {nondegenerate} critical "
        f"nondegenerate, {degenerate} degenerate unmatched"
        for n, length, nondegenerate, degenerate in [
            (0, 0, 1, 0), (1, 0, 0, 1), (1, 1, 1, 0), (2, 0, 0, 1),
            (2, 1, 0, 2), (2, 2, 1, 2)]]


@pytest.mark.parametrize("policy", ["critical", "allow"])
def test_pair_text_summary_walks_no_top_dimension_stratum(capsys, monkeypatch,
                                                         policy):
    # the top stratum's critical count is its walked size less the pairs
    # that rise into it, so the text job walks only the strata below it
    walked = []

    def recording(walk):
        def recorded(dim, length):
            walked.append((dim, length))
            return walk(dim, length)
        return recorded

    for name in ("surjective_words", "stratum_words", "enumerate_stratum"):
        monkeypatch.setattr(pairing, name, recording(getattr(pairing, name)))
    code, _, _ = run(capsys, "pair", "--max-dim", "4", "--max-length", "5",
                     "--degenerate-policy", policy)
    assert code == EXIT_OK
    assert walked and max(n for n, _ in walked) == 3


@pytest.mark.parametrize("policy", ["critical", "allow"])
def test_pair_summary_degenerate_count_equals_the_walked_count(policy):
    # the summary counts n^L - n! S(L, n) under critical, and 0 under allow,
    # where no cell is degenerate by fiat; here each stratum is walked
    fiat = policy == "critical"
    for n in range(7):
        for length in range(8 if n else 1):
            walked = sum(is_degenerate_word(n, w)
                         for w in stratum_words(n, length)) if fiat else 0
            counted = degenerate_size(n, length) if fiat else 0
            assert counted == walked, (n, length)


def test_pair_dot_output_is_unchanged(capsys):
    # the bytes the Simplex-based renderer printed for this scope
    code, out, _ = run(capsys, "pair", "--max-dim", "3", "--max-length", "3",
                       "--format", "dot")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 148
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "8f55a4ad0aaf9f7a62ca4b5f35d15c30a3b77fb513d8269131e33caf2287a926"


def test_pair_dot_refuses_an_oversized_diagram(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "pair", "--max-dim", "6", "--max-length", "7",
                         "--format", "dot")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_SCOPE
    assert out == ""
    assert "the DOT diagram would draw over 2000000 lines" in err


def test_pair_csv_header(capsys):
    code, out, _ = run(capsys, "pair", "--max-dim", "2", "--max-length", "2",
                       "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "dim,length,simplex,degenerate,reason"


def test_pair_output_is_byte_stable(capsys):
    argv = ("pair", "--max-dim", "3", "--max-length", "3",
            "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


# --- validate ------------------------------------------------------------------------

def test_validate_accepts_a_built_matching(capsys, tmp_path):
    matching, _ = build_matching(3, 3)
    path = tmp_path / "matching.json"
    path.write_text(matching.to_json())
    code, out, _ = run(capsys, "validate", "--matching", str(path))
    assert code == EXIT_OK
    assert "verdict: ok" in out


def test_validate_flags_a_broken_matching(capsys, tmp_path):
    bad = Matching([(S(2, (2, 1)), S(3, (3, 1)))], Scope(3, 3),
                   PairingFlags())
    path = tmp_path / "bad.json"
    path.write_text(bad.to_json())
    code, out, _ = run(capsys, "validate", "--matching", str(path))
    assert code == EXIT_INVALID
    assert "verdict: INVALID" in out
    assert "regularity" in out


# regular pairs in one stratum whose gradient paths run in a cycle
CYCLIC_PAIRS = [
    (S(2, (1, 2, 2)), S(3, (1, 3, 2))),
    (S(2, (1, 2, 1)), S(3, (2, 3, 1))),
    (S(2, (2, 2, 1)), S(3, (3, 2, 1))),
    (S(2, (2, 1, 1)), S(3, (3, 1, 2))),
    (S(2, (2, 1, 2)), S(3, (2, 1, 3))),
    (S(2, (1, 1, 2)), S(3, (1, 2, 3))),
]


def test_validate_reports_cycle_witnesses(capsys, tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text(
        Matching(CYCLIC_PAIRS, Scope(3, 3), PairingFlags()).to_json())
    code, out, _ = run(capsys, "validate", "--matching", str(path))
    assert code == EXIT_INVALID
    assert "acyclicity" in out
    assert "cycle:" in out


def test_boundary_rows_on_a_cyclic_export_fail_fast():
    # every nondegenerate 3-cell of length 3 is matched, so the scope
    # reaches length 4 for an unpaired cell with a face on the cycle
    export = Matching(CYCLIC_PAIRS, Scope(3, 4), PairingFlags()).to_json()
    flow = FlowContext(Unvalidated(Matching.from_json(export)), Scope(3, 4))
    start = time.perf_counter()
    # the backward walk up from the basis cell meets the cycle
    with pytest.raises(SelfCheckError, match="has a cycle"):
        flow.boundary_rows([S(3, (3, 2, 2))], [S(2, (2, 1))])
    # the forward walk down from the faces of a cell meets it too: d_0 of
    # a3.a2.a1.a1 is a2.a1.a1, which lies on the cycle
    with pytest.raises(SelfCheckError, match="has a cycle"):
        flow.boundary_rows([S(3, (3, 2, 1, 1))], [])
    assert time.perf_counter() - start < 1.0


def test_validate_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "validate", "--matching",
                       str(tmp_path / "nope.json"))
    assert code == EXIT_USAGE
    assert "error:" in err


def test_pair_json_export_round_trips_through_validate(capsys, tmp_path):
    path = tmp_path / "m.json"
    code, _, _ = run(capsys, "pair", "--max-dim", "3", "--max-length", "3",
                     "--degenerate-policy", "allow", "--format", "json",
                     "--output", str(path))
    assert code == EXIT_OK
    text = path.read_text()
    assert list(json.loads(text)["flags"].items()) == [
        ("face_quantifier", "all"), ("coface_quantifier", "regular"),
        ("degenerate_policy", "allow")]
    assert Matching.from_json(text).to_json() + "\n" == text
    code, out, _ = run(capsys, "validate", "--matching", str(path))
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "verdict: ok"


@pytest.mark.parametrize("fixed,edit", [
    ('"face_quantifier":"all"', '"face_quantifier":"regular"'),
    ('"coface_quantifier":"regular"', '"coface_quantifier":"any"'),
], ids=["face", "coface"])
def test_validate_rejects_a_removed_quantifier_scope(capsys, tmp_path,
                                                     fixed, edit):
    path = tmp_path / "m.json"
    run(capsys, "pair", "--max-dim", "3", "--max-length", "3",
        "--format", "json", "--output", str(path))
    text = path.read_text()
    assert fixed in text
    path.write_text(text.replace(fixed, edit))
    code, out, err = run(capsys, "validate", "--matching", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert "option was removed" in err


@pytest.mark.parametrize("edit,message", [
    (lambda data: data.pop("flags"), "matching export has no 'flags' key"),
    (lambda data: data.pop("scope"), "matching export has no 'scope' key"),
    (lambda data: data["pairs"][0].pop("tau"),
     "matching pair has no 'tau' key"),
    (lambda data: data["flags"].pop("degenerate_policy"),
     "matching flags has no 'degenerate_policy' key"),
    (lambda data: data["pairs"][0]["sigma"].update(word=3),
     "matching export holds a value of the wrong type"),
    # numbers that are not JSON integers are refused, not truncated
    (lambda data: data["pairs"][0]["sigma"]["word"].__setitem__(0, 1.7),
     "matching export holds a value of the wrong type"),
    (lambda data: data["pairs"][0]["tau"].update(dim=3.0),
     "matching export holds a value of the wrong type"),
    (lambda data: data["scope"].update(max_length=2.9),
     "matching export holds a value of the wrong type"),
    (lambda data: data["scope"].update(max_dim="3"),
     "matching export holds a value of the wrong type"),
    (lambda data: data["pairs"][0]["tau"]["word"].__setitem__(0, True),
     "matching export holds a value of the wrong type"),
], ids=["no-flags", "no-scope", "no-tau", "no-policy", "word-not-a-list",
        "float-letter", "float-dim", "float-bound", "string-bound",
        "bool-letter"])
def test_validate_rejects_a_malformed_export(capsys, tmp_path, edit,
                                             message):
    data = json.loads(build_matching(3, 3)[0].to_json())
    edit(data)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", "--matching", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: " + message)


def test_validate_rejects_an_export_that_is_not_an_object(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[]")
    code, out, err = run(capsys, "validate", "--matching", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: matching export must be a JSON object, not list\n"


# --- flow ----------------------------------------------------------------------------

def test_flow_collapses_generator_powers(capsys):
    code, out, _ = run(capsys, "flow", "--chain", "y^4")
    assert code == EXIT_OK
    assert out == "4·y\n"


@pytest.mark.parametrize("r", [14, 16, 18, 40])
def test_flow_collapses_long_generator_powers(capsys, r):
    # the rule reads a word's letters, so y^r costs no 2^r coface listing
    code, out, _ = run(capsys, "flow", "--chain", f"y^{r}")
    assert code == EXIT_OK
    assert out == f"{r}·y\n"


def test_a_long_edge_power_pairs_with_its_last_letter_raised():
    rule = SteepnessRule()
    raised = (1,) * 63 + (2,)
    assert rule.up_word(1, (1,) * 64) == raised
    assert rule.down_word(2, raised) == (1,) * 64
    assert rule.down_word(2, (2,) + (1,) * 63) is None


def test_flow_json_output(capsys):
    code, out, _ = run(capsys, "flow", "--chain", "sigma(3)",
                       "--format", "json")
    assert code == EXIT_OK
    assert out.strip() == ('{"dim":3,"terms":[{"word":[2,3,1],"coef":-1},'
                           '{"word":[3,2,1],"coef":1}]}')


def test_flow_identity_and_zero_need_dim(capsys):
    code, out, _ = run(capsys, "flow", "--chain", "e", "--dim", "1")
    assert (code, out) == (EXIT_OK, "e\n")
    code, out, _ = run(capsys, "flow", "--chain", "0", "--dim", "2")
    assert (code, out) == (EXIT_OK, "0\n")
    code, _, err = run(capsys, "flow", "--chain", "e")
    assert code == EXIT_USAGE
    assert "--dim" in err


def test_flow_allow_policy_drains_the_smallest_doubled_tail(capsys):
    code, out, _ = run(capsys, "flow", "--chain", "tau(3)",
                       "--degenerate-policy", "allow")
    assert code == EXIT_OK
    assert out == "-a2.a2.a3 + a3.a2.a2\n"


def test_flow_scope_exit_code(capsys):
    code, _, err = run(capsys, "flow", "--chain", "sigma(3)",
                       "--max-dim", "3")
    assert code == EXIT_SCOPE
    assert "beyond max_dim" in err


@pytest.mark.parametrize("bound", ["--max-dim", "--max-length"])
def test_flow_zero_bound_is_a_usage_error(capsys, bound):
    code, out, err = run(capsys, "flow", "--chain", "y^4", bound, "0")
    assert code == EXIT_USAGE
    assert out == ""
    assert "scope bounds must be >= 1" in err


def test_flow_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "flow", "--chain", "zeta(3)")
    assert code == EXIT_USAGE
    assert "unrecognized cell" in err


@pytest.mark.parametrize("argv,message", [
    (("--chain", "3"), "scalar '3' has no cell"),
    (("--chain", "y", "--dim", "2"), "cell 'y' has dimension 1, not 2"),
])
def test_flow_refuses_a_chain_without_cells_of_its_dimension(capsys, argv,
                                                            message):
    code, out, err = run(capsys, "flow", *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("chain", ["y--y", "-", "+"])
def test_flow_refuses_a_stray_sign(capsys, chain):
    # once printed 0 for y--y; a lone sign failed an assert with exit 1
    code, out, err = run(capsys, "flow", f"--chain={chain}")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: stray sign in chain expression {chain!r}\n"


# --- morse ---------------------------------------------------------------------------

def test_morse_text_report(capsys):
    code, out, _ = run(capsys, "morse", "--degree", "2",
                       "--max-length", "5")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "degree 2 boundary: 10 x 1 "
        "(rows: critical 2-cells, cols: critical 1-cells)",
        "all entries zero",
    ]


def test_morse_text_report_prints_the_csv_under_its_header(capsys):
    code, out, _ = run(capsys, "morse", "--degree", "3",
                       "--max-length", "5")
    assert code == EXIT_OK
    header, rest = out.split("\n", 1)
    assert header == ("degree 3 boundary: 62 x 10 "
                      "(rows: critical 3-cells, cols: critical 2-cells)")
    code, csv, _ = run(capsys, "morse", "--degree", "3",
                       "--max-length", "5", "--format", "csv")
    assert code == EXIT_OK
    assert rest == csv and len(csv.splitlines()) == 63
    assert csv.startswith("simplex,a2.a1,a1.a2.a1,")


def test_morse_json_and_csv(capsys):
    code, out, _ = run(capsys, "morse", "--degree", "1",
                       "--max-length", "3", "--format", "json")
    assert code == EXIT_OK
    assert out.strip() == (
        '{"degree":1,"scope":{"max_dim":2,"max_length":3},'
        '"rows":["a1"],"cols":["e"],"matrix":[[0]]}')
    code, out, _ = run(capsys, "morse", "--degree", "1",
                       "--max-length", "3", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines() == ["simplex,e", "a1,0"]


@pytest.mark.parametrize("argv,digest", [
    ("--degree 4 --max-length 6 --format csv",
     "a2ec30aa781cd73ab813b25e47f1977b7254faa095298bb015cb6bf78811eec8"),
    ("--degree 4 --max-length 6 --format csv --mode normalized",
     "a2ec30aa781cd73ab813b25e47f1977b7254faa095298bb015cb6bf78811eec8"),
    ("--degree 4 --max-length 6 --format csv --degenerate-policy allow",
     "e67ff3d6a0a021cd50acbaf5f294249455ac207f7b707d9b0591e5e23f0734b6"),
    ("--degree 5 --max-length 6 --format csv",
     "df5bda74e71e8c8fb512b31f9da33a3517fe1e2f8764d00ef7e3d156e01aaaa4"),
    ("--degree 4 --max-length 7 --format json",
     "624d4e9752159a02971a8e3cf22d891d95b502b24b9bcb6453bb3b998f460d4c"),
], ids=["4-6-csv", "4-6-csv-normalized", "4-6-csv-allow", "5-6-csv",
        "4-7-json"])
def test_morse_slices_beyond_the_bench_grid_are_unchanged(capsys, argv,
                                                         digest):
    # stdout bytes of slices larger than any benchmark job, as the tuple
    # keyed backward reduction printed them
    code, out, _ = run(capsys, "morse", *argv.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_morse_refuses_an_oversized_dense_slice_before_any_row(
        capsys, tmp_path, fmt):
    # (5,8) passes the stratum limit, but its slice would print 47964 x
    # 12720 fields; the bases are counted and the run refused before a
    # boundary row is built, so nothing is written and no file is made
    target = tmp_path / "slice.out"
    start = time.perf_counter()
    code, out, err = run(capsys, "morse", "--degree", "5", "--max-length",
                         "8", "--format", fmt, "--output", str(target))
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_SCOPE
    assert out == "" and not target.exists()
    assert err == ("error: the degree-5 slice holds 47964 x 12720 = "
                   "610102080 fields, over the limit of 2000000\n")


def test_morse_rejects_degree_zero(capsys):
    code, _, _ = run(capsys, "morse", "--degree", "0", "--max-length", "3")
    assert code == EXIT_USAGE


# --- homology ------------------------------------------------------------------------

def test_homology_single_degree(capsys):
    code, out, _ = run(capsys, "homology", "--degree", "1",
                       "--max-length", "4")
    assert code == EXIT_OK
    assert out == ('{"degree":1,"scope":{"max_length":4},'
                   '"betti":1,"torsion":[]}\n')


def test_homology_scan(capsys):
    code, out, _ = run(capsys, "homology", "--degree", "1",
                       "--scan", "2", "4")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(json.loads(line)["betti"] == 1 for line in lines[:3])
    assert lines[3] == "stable_from: 2"


def test_homology_scan_json_is_the_scan_payload(capsys):
    code, out, _ = run(capsys, "homology", "--degree", "1",
                       "--scan", "2", "4", "--format", "json")
    assert code == EXIT_OK
    assert out == stability_scan(1, 2, 4).to_json() + "\n"
    data = json.loads(out)
    assert json.dumps(data, separators=(",", ":")) + "\n" == out
    assert data["stable_from"] == 2 and len(data["results"]) == 3


@pytest.mark.parametrize("bounds,fragment", [
    (("--max-length", "3", "--scan", "2", "3"),
     "argument --scan: not allowed with argument --max-length"),
    ((), "one of the arguments --max-length --scan is required"),
])
def test_homology_takes_exactly_one_of_max_length_and_scan(capsys, bounds,
                                                           fragment):
    code, out, err = run(capsys, "homology", "--degree", "1", *bounds)
    assert code == EXIT_USAGE
    assert out == ""
    assert fragment in err


def test_homology_scan_rejects_an_empty_range(capsys):
    code, out, err = run(capsys, "homology", "--degree", "1",
                         "--scan", "5", "2")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: --scan LO HI needs LO <= HI, got 5 > 2\n"


def test_homology_scan_refuses_an_oversized_top_bound_at_once(capsys):
    # the scan builds its one matching at the top bound, so the refusal
    # comes before any lower bound is worked through
    start = time.perf_counter()
    code, out, err = run(capsys, "homology", "--degree", "5",
                         "--scan", "2", "8")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_SCOPE
    assert out == ""
    assert "over the limit of 2000000" in err


def test_homology_scan_rejects_a_bound_below_one(capsys):
    code, out, err = run(capsys, "homology", "--degree", "1",
                         "--scan", "0", "3")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: scope bounds must be >= 1\n"


@pytest.mark.parametrize("fmt", ["text", "json", "csv", "dot"])
@pytest.mark.parametrize("bound", ["--max-dim", "--max-length"])
def test_pair_refuses_a_bound_below_one_in_every_format(capsys, fmt, bound):
    # the text, JSON and CSV formats once gave a second wording
    argv = {"--max-dim": "3", "--max-length": "3", bound: "0"}
    code, out, err = run(capsys, "pair", "--format", fmt,
                         *[x for kv in argv.items() for x in kv])
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: scope bounds must be >= 1\n"


def test_output_flag_writes_the_payload_to_a_file(capsys, tmp_path):
    target = tmp_path / "h1.json"
    code, out, _ = run(capsys, "homology", "--degree", "1",
                       "--max-length", "3", "--output", str(target))
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text() == ('{"degree":1,"scope":{"max_length":3},'
                                  '"betti":1,"torsion":[]}\n')


@pytest.mark.parametrize("argv,message", [
    ("pair --max-dim 6 --max-length 7 --format dot",
     "the DOT diagram would draw over 2000000 lines"),
    ("pair --max-dim 3 --max-length 14 --format csv",
     "stratum (dim 3, length 14) holds 4782969 cells"),
    ("enumerate --dim 2 --length 21 --format csv",
     "stratum (dim 2, length 21) holds 2097152 cells"),
    ("morse --degree 5 --max-length 7 --format csv",
     "the degree-5 slice holds 7140 x 3060 = 21848400 fields"),
], ids=["pair-dot", "pair-stratum", "enumerate", "morse"])
@pytest.mark.parametrize("sink", ["stdout", "output"])
def test_a_refused_export_writes_nothing(capsys, tmp_path, argv, message,
                                         sink):
    """Every refusal comes before the first byte of an export, so stdout
    stays empty and no --output file is made."""
    target = tmp_path / "refused.out"
    argv = argv.split() + (["--output", str(target)] if sink == "output"
                           else [])
    code, out, err = run(capsys, *argv)
    assert code == EXIT_SCOPE
    assert out == "" and message in err
    assert not target.exists()


class _CountingSink:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def flush(self):
        pass


# The most memory an export may take on top of its matching, against
# 9.6 MB of CSV and 1.6 MB of DOT written.  The joined exports took 36 and
# 7.5 MB; the blocks take about 0.6 MB.
EXPORT_PEAK_BYTES = 1_000_000


@pytest.mark.parametrize("argv", [
    "pair --max-dim 2 --max-length 16 --format csv",
    "pair --max-dim 5 --max-length 5 --format dot",
], ids=["csv", "dot"])
def test_a_large_export_writes_in_bounded_memory(monkeypatch, argv):
    """The traced peak of the export, from the end of the matching build
    to the last write, stays under a fixed bound below the output's size."""
    built = []

    def build_then_reset(*args, **kwargs):
        result = build_matching(*args, **kwargs)
        built.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return result

    monkeypatch.setattr("fkmorse.cli.build_matching", build_then_reset)
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert sink.size > EXPORT_PEAK_BYTES
    assert peak - built[0] < EXPORT_PEAK_BYTES


# --- process-level behavior ------------------------------------------------------------

def test_no_arguments_is_a_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == EXIT_USAGE


def test_help_exits_cleanly(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == EXIT_OK


@pytest.mark.parametrize("argv", [
    ("--seed", "1", "pair", "--max-dim", "3", "--max-length", "3"),
    ("pair", "--max-dim", "3", "--max-length", "3",
     "--face-quantifier", "all"),
    ("homology", "--degree", "1", "--max-length", "3",
     "--coface-quantifier", "regular"),
    ("pair", "--max-dim", "0", "--max-length", "3"),
], ids=["seed", "face-quantifier", "coface-quantifier", "max-dim-0"])
def test_removed_options_and_bad_scopes_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err


def test_self_check_failures_exit_five(capsys, monkeypatch):
    def boom(*_args, **_kwargs):
        raise SelfCheckError("routes disagree")
    monkeypatch.setattr("fkmorse.cli.compute_homology", boom)
    code, _, err = run(capsys, "homology", "--degree", "1",
                       "--max-length", "3")
    assert code == EXIT_SELF_CHECK
    assert "routes disagree" in err

    def stall(*_args, **_kwargs):
        raise StabilizationError("no fixed point", iterations=2)
    monkeypatch.setattr("fkmorse.cli.compute_homology", stall)
    code, _, err = run(capsys, "homology", "--degree", "1",
                       "--max-length", "3")
    assert code == EXIT_SELF_CHECK
    assert "no fixed point" in err


def test_verbose_notes_go_to_stderr(capsys, monkeypatch):
    monkeypatch.setenv("FKMORSE_VERBOSE", "1")
    code, out, err = run(capsys, "flow", "--chain", "y^4")
    assert code == EXIT_OK
    assert out == "4·y\n"
    assert "stabilized in 3 iterations" in err
    monkeypatch.delenv("FKMORSE_VERBOSE")
    _, _, err = run(capsys, "flow", "--chain", "y^4")
    assert err == ""
