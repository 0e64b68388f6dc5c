"""Command-line interface: parsing, rendering, subcommands, exit codes.

Each subcommand is run in-process through main() so exit codes and exact
stdout bytes can be asserted without spawning subprocesses.
"""

import json

import pytest

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
    parse_enumerate_json,
    render_cell,
    render_chain,
)
from fkmorse.errors import SelfCheckError, StabilizationError
from fkmorse.flow import (beta_cell, sigma_cell, sigma_tilde_cell, tau_cell,
                          tau_tilde_cell, y_power)
from fkmorse.pairing import Matching, PairingFlags, Scope, build_matching
from fkmorse.simplicial import Simplex

S = Simplex


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    cells = parse_enumerate_json(out)
    assert cells == [
        (0, S(2, (1, 1)), True),
        (1, S(2, (1, 2)), False),
        (2, S(2, (2, 1)), False),
        (3, S(2, (2, 2)), True),
    ]


def test_enumerate_rejects_impossible_stratum(capsys):
    code, _, err = run(capsys, "enumerate", "--dim", "0", "--length", "2")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_enumerate_missing_arguments(capsys):
    code, _, _ = run(capsys, "enumerate", "--dim", "2")
    assert code == EXIT_USAGE


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


def test_validate_reports_cycle_witnesses(capsys, tmp_path):
    pairs = [
        (S(2, (1, 2, 2)), S(3, (1, 3, 2))),
        (S(2, (1, 2, 1)), S(3, (2, 3, 1))),
        (S(2, (2, 2, 1)), S(3, (3, 2, 1))),
        (S(2, (2, 1, 1)), S(3, (3, 1, 2))),
        (S(2, (2, 1, 2)), S(3, (2, 1, 3))),
        (S(2, (1, 1, 2)), S(3, (1, 2, 3))),
    ]
    path = tmp_path / "cycle.json"
    path.write_text(Matching(pairs, Scope(3, 3), PairingFlags()).to_json())
    code, out, _ = run(capsys, "validate", "--matching", str(path))
    assert code == EXIT_INVALID
    assert "acyclicity" in out
    assert "cycle:" in out


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


# --- flow ----------------------------------------------------------------------------

def test_flow_collapses_generator_powers(capsys):
    code, out, _ = run(capsys, "flow", "--chain", "y^4")
    assert code == EXIT_OK
    assert out == "4·y\n"


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


def test_flow_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "flow", "--chain", "zeta(3)")
    assert code == EXIT_USAGE
    assert "unrecognized cell" in err


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


def test_homology_scan_rejects_an_empty_range(capsys):
    code, out, err = run(capsys, "homology", "--degree", "1",
                         "--scan", "5", "2")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: --scan LO HI needs LO <= HI, got 5 > 2\n"


def test_output_flag_writes_the_payload_to_a_file(capsys, tmp_path):
    target = tmp_path / "h1.json"
    code, out, _ = run(capsys, "homology", "--degree", "1",
                       "--max-length", "3", "--output", str(target))
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text() == ('{"degree":1,"scope":{"max_length":3},'
                                  '"betti":1,"torsion":[]}\n')


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
