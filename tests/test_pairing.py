"""Tests for the steepness pairing, explicit matchings, and the validator.

Fixture strategy: small strata are checked against hand-enumerated pairings
(every face and coface of a length-3 word in dimension <= 3 can be listed by
hand), and the validator is exercised on deliberately broken matchings so
that each failure mode is witnessed by a distinct error class.
"""

import csv
import io

import pytest

from fkmorse.errors import TruncationError
from fkmorse.pairing import (
    CriticalReport,
    Matching,
    PairingFlags,
    Scope,
    SteepnessRule,
    StratumKey,
    _coface_words,
    build_matching,
    coface_occurrences,
    matching_to_dot,
    regular_cofaces,
    steepness_pair,
    steepness_pair_reason,
    validate_matching,
)
from fkmorse.simplicial import (Simplex, enumerate_stratum, face,
                                is_degenerate, sort_key)

S = Simplex
ALLOW = PairingFlags(degenerate_policy="allow")


# --- flags and scope ----------------------------------------------------------

def test_default_flags():
    assert PairingFlags().degenerate_policy == "critical"


@pytest.mark.parametrize("kwargs", [
    {"degenerate_policy": "skip"},
    {"degenerate_policy": "Allow"},
    {"degenerate_policy": ""},
])
def test_flags_reject_unknown_values(kwargs):
    with pytest.raises(ValueError):
        PairingFlags(**kwargs)


def test_flags_json_round_trip():
    flags = PairingFlags(degenerate_policy="allow")
    # the fixed quantifier scopes stay in the export, in this key order
    assert list(flags.to_json_dict().items()) == [
        ("face_quantifier", "all"), ("coface_quantifier", "regular"),
        ("degenerate_policy", "allow")]
    assert PairingFlags.from_json_dict(flags.to_json_dict()) == flags


def test_scope_validation_and_cover():
    with pytest.raises(ValueError):
        Scope(0, 3)
    with pytest.raises(ValueError):
        Scope(3, 0)
    scope = Scope(3, 3)
    assert scope.covers(S(3, (1, 2, 3)))
    assert not scope.covers(S(4, (1, 2, 3)))
    assert not scope.covers(S(2, (1, 1, 2, 2)))
    assert Scope.from_json_dict(scope.to_json_dict()) == scope


# --- coface machinery ---------------------------------------------------------

def _brute_letter_preimages(n: int, i: int, g: int) -> tuple[int, ...]:
    # A letter h in dimension n+1 maps to g under the i-th face exactly when
    # the one-letter word (h,) has (g,) as its i-th face.
    return tuple(h for h in range(1, n + 2)
                 if face(S(n + 1, (h,)), i).word == (g,))


def test_letter_coface_preimages_match_brute_force():
    # on a one-letter word, the cofaces at index i are the letter preimages
    for n in range(1, 6):
        for i in range(n + 2):
            for g in range(1, n + 1):
                lifts = tuple(w[0] for j, w in _coface_words(n, (g,))
                              if j == i)
                assert lifts == _brute_letter_preimages(n, i, g)


def test_coface_occurrences_of_sigma_2():
    occ = coface_occurrences(S(2, (2, 1)))
    assert occ == {
        S(3, (2, 1)): (0, 1),
        S(3, (3, 1)): (1, 2),
        S(3, (3, 2)): (2, 3),
    }


def test_coface_occurrences_are_genuine_cofaces():
    for sigma in [S(2, (2, 1)), S(1, (1, 1)), S(2, (1, 2, 1))]:
        for tau, indices in coface_occurrences(sigma).items():
            assert tau.dim == sigma.dim + 1
            assert indices == tuple(
                i for i in range(tau.dim + 1) if face(tau, i) == sigma)
            assert indices


def test_regular_cofaces_examples():
    assert [(c.word, i) for c, i in regular_cofaces(S(1, (1, 1)))] == \
        [((1, 2), 1), ((2, 1), 1)]
    assert regular_cofaces(S(1, (1,))) == []
    assert regular_cofaces(S(2, (2, 1))) == []


# --- the steepness rule on worked cells ---------------------------------------

def test_square_of_the_generator_pairs_upward():
    assert steepness_pair(S(1, (1, 1))) == S(2, (1, 2))


def test_length_three_pairs_in_dimension_two():
    assert steepness_pair(S(2, (1, 2, 2))) == S(3, (1, 2, 3))
    assert steepness_pair(S(2, (2, 2, 1))) == S(3, (2, 3, 1))
    assert steepness_pair(S(2, (2, 1, 2))) == S(3, (2, 1, 3))


def test_length_three_criticals_in_dimension_two():
    assert steepness_pair(S(2, (1, 2, 1))) is None
    assert steepness_pair(S(2, (2, 1, 1))) is None


def test_reason_strings():
    assert steepness_pair_reason(S(1, (1,))) == (None, "no-regular-coface")
    assert steepness_pair_reason(S(2, (2, 1))) == (None, "no-regular-coface")
    assert steepness_pair_reason(S(2, (1, 2, 1))) == \
        (None, "not-max-in-min-coface")
    assert steepness_pair_reason(S(2, (2, 2))) == (None, "degenerate")
    cand, why = steepness_pair_reason(S(1, (1, 1)))
    assert (cand, why) == (S(2, (1, 2)), "paired")


def test_descending_staircases_are_never_paired_upward():
    # (r, r-1, ..., 1) in dimension r has no regular coface for r in 2..6.
    for r in range(2, 7):
        word = tuple(range(r, 0, -1))
        assert steepness_pair_reason(S(r, word)) == \
            (None, "no-regular-coface")


def test_doubled_head_staircase_pairs_with_its_twisted_form():
    # (r-1, r-1, r-2, ..., 1) in dimension r-1 pairs with the word whose
    # second letter is raised to r: checked here for the largest hand-worked
    # case, r = 6.
    assert steepness_pair(S(5, (5, 5, 4, 3, 2, 1))) == \
        S(6, (5, 6, 4, 3, 2, 1))


def test_middle_face_is_regular_yet_unmatched():
    # (5, 4, 3, 3, 2, 1) in dimension 5 occurs exactly once as a face of
    # (6, 5, 3, 4, 2, 1), so it has a regular coface; the rule still leaves
    # it unmatched because it is not the steepest face of its best coface.
    mid = S(5, (5, 4, 3, 3, 2, 1))
    up = S(6, (6, 5, 3, 4, 2, 1))
    occurrences = [i for i in range(up.dim + 1) if face(up, i) == mid]
    assert occurrences == [3]
    assert steepness_pair_reason(mid) == (None, "not-max-in-min-coface")


def test_allow_policy_pairs_degenerate_words():
    assert steepness_pair(S(2, (2, 2)), ALLOW) == S(3, (2, 3))
    assert steepness_pair(S(2, (2, 2, 2)), ALLOW) == S(3, (2, 2, 3))


def test_allow_policy_keeps_nondegenerate_decisions():
    for sigma in enumerate_stratum(2, 3):
        if is_degenerate(sigma):
            continue
        assert steepness_pair(sigma, ALLOW) == steepness_pair(sigma)


# --- build_matching and the critical report -----------------------------------

@pytest.fixture(scope="module")
def built_3_3():
    return build_matching(3, 3)


def test_build_pairs_for_stratum(built_3_3):
    matching, _ = built_3_3
    assert matching.pairs_for_stratum(2, 3) == [
        (S(2, (1, 2, 2)), S(3, (1, 2, 3))),
        (S(2, (2, 1, 2)), S(3, (2, 1, 3))),
        (S(2, (2, 2, 1)), S(3, (2, 3, 1))),
    ]
    assert matching.pairs_for_stratum(1, 2) == [(S(1, (1, 1)), S(2, (1, 2)))]
    assert matching.pairs_for_stratum(1, 3) == \
        [(S(1, (1, 1, 1)), S(2, (1, 1, 2)))]
    assert len(matching) == 5


def test_report_strata_partition(built_3_3):
    _, report = built_3_3
    assert [c.word for c in report.degenerate_by_fiat(2, 3)] == \
        [(1, 1, 1), (2, 2, 2)]
    assert [c.word for c in report.unmatched_nondegenerate(2, 3)] == \
        [(1, 2, 1), (2, 1, 1)]
    assert [c.word for c in report.critical_cells(2, 3)] == \
        [(1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 2, 2)]
    assert [c.word for c in report.unmatched_nondegenerate(1, 1)] == [(1,)]
    assert [c.word for c in report.unmatched_nondegenerate(3, 3)] == \
        [(1, 3, 2), (3, 1, 2), (3, 2, 1)]


def test_report_reasons(built_3_3):
    _, report = built_3_3
    assert report.reasons[S(2, (1, 2, 1))] == "not-max-in-min-coface"
    assert report.reasons[S(2, (2, 1))] == "no-regular-coface"
    assert report.reasons[S(1, (1,))] == "no-regular-coface"
    # Cells at the top dimension of the scope cannot look upward.
    assert report.reasons[S(3, (3, 2, 1))] == "upward-undecided"
    # Degenerate-by-fiat cells carry no stored reason; it is constant.
    assert S(2, (2, 2)) not in report.reasons


def test_report_would_pair_records_allow_candidates(built_3_3):
    _, report = built_3_3
    assert report.would_pair == [
        (S(2, (2, 2)), S(3, (2, 3))),
        (S(2, (2, 2, 2)), S(3, (2, 2, 3))),
    ]


def test_report_csv_shape(built_3_3):
    _, report = built_3_3
    text = report.to_csv()
    lines = text.splitlines()
    assert lines[0] == "dim,length,simplex,degenerate,reason"
    rows = list(csv.DictReader(io.StringIO(text)))
    by_cell = {(r["dim"], r["length"], r["simplex"]): r for r in rows}
    assert by_cell[("2", "2", "a2.a2")]["degenerate"] == "true"
    assert by_cell[("2", "2", "a2.a2")]["reason"] == "degenerate"
    assert by_cell[("2", "2", "a2.a1")]["reason"] == "no-regular-coface"
    assert by_cell[("2", "3", "a1.a2.a1")]["reason"] == "not-max-in-min-coface"
    assert by_cell[("3", "3", "a3.a2.a1")]["reason"] == "upward-undecided"


def test_build_in_allow_mode_pairs_the_would_pair_cells():
    matching, report = build_matching(3, 3, flags=ALLOW)
    assert matching.pair_up(S(2, (2, 2))) == S(3, (2, 3))
    assert report.would_pair == []


def test_truncation_limit():
    with pytest.raises(TruncationError):
        build_matching(3, 3, max_stratum_cells=5)


def test_scope_growth_preserves_shared_strata(built_3_3):
    small, _ = built_3_3
    large, _ = build_matching(4, 4)
    for dim in range(1, 3):
        for length in range(0, 4):
            assert large.pairs_for_stratum(dim, length) == \
                small.pairs_for_stratum(dim, length)
    assert len(large) == 28


def test_lazy_rule_agrees_with_built_matching(built_3_3):
    matching, _ = built_3_3
    rule = SteepnessRule()
    for dim in range(1, 3):
        for length in range(0, 4):
            for sigma in enumerate_stratum(dim, length):
                assert rule.pair_up(sigma) == matching.pair_up(sigma)
    for sigma, tau in matching.pairs:
        assert rule.pair_down(tau) == sigma
        assert rule.is_matched(sigma) and rule.is_matched(tau)
    assert rule.is_critical(S(2, (2, 1)))
    # Under the critical policy a degenerate word is critical by fiat.
    assert rule.is_critical(S(2, (2, 2)))
    assert not SteepnessRule(ALLOW).is_critical(S(2, (2, 2)))


# --- the literal definition, as an oracle ------------------------------------
#
# The steepness rule read off its definition: scan every word of the coface
# stratum with simplicial.face and keep the words that hold sigma as a face.
# It looks at whole strata, degenerate words included, so it is only usable
# on small scopes.
#
# The definition also reads the two scopes the rule no longer offers: the
# least coface may be sought among any cofaces instead of the regular ones
# (those holding sigma once), and sigma may be steepest among the faces of
# that coface that occur once instead of among all of them.  The rule keeps
# (all faces, regular cofaces); at the first four oracle scopes the other
# three scope pairs are checked for how they stand to it.

FLAG_COMBOS = [PairingFlags(degenerate_policy=p)
               for p in ("critical", "allow")]
ORACLE_SCOPES = [(3, 3), (4, 4), (3, 5), (5, 4), (4, 5), (6, 4)]
KEPT_SCOPES = ("all", "regular")
REMOVED_SCOPES = [("all", "any"), ("regular", "regular"), ("regular", "any")]


def _oracle_cases():
    cases = [(d, n, KEPT_SCOPES, flags) for d, n in ORACLE_SCOPES
             for flags in FLAG_COMBOS]
    cases += [(d, n, scopes, flags) for d, n in ORACLE_SCOPES[:4]
              for scopes in REMOVED_SCOPES for flags in FLAG_COMBOS]
    return [pytest.param(d, n, scopes, flags, id="-".join(
                [str(d), str(n), *scopes, flags.degenerate_policy]))
            for d, n, scopes, flags in cases]


ORACLE_CASES = _oracle_cases()


def _coface_table(dim, length):
    """Every word tau of stratum (dim, length) with its faces d_0..d_dim,
    and for each face sigma the number of indices at which it occurs."""
    faces, hits = {}, {}
    for tau in enumerate_stratum(dim, length):
        faces[tau] = [face(tau, i) for i in range(dim + 1)]
        for sigma in faces[tau]:
            counts = hits.setdefault(sigma, {})
            counts[tau] = counts.get(tau, 0) + 1
    return faces, hits


def _literal_pair(sigma, flags, table, scopes=KEPT_SCOPES):
    faces, hits = table
    face_scope, coface_scope = scopes
    critical = flags.degenerate_policy == "critical"
    if critical and is_degenerate(sigma):
        return None, "degenerate"
    candidates = [tau for tau, k in hits.get(sigma, {}).items()
                  if k == 1 or coface_scope == "any"]
    if not candidates:
        return None, "no-regular-coface"
    tau = min(candidates, key=sort_key)
    if critical and is_degenerate(tau):
        return None, "coface-degenerate"
    same = [f for f in faces[tau] if f.length == tau.length]
    if face_scope == "regular":
        same = [f for f in same if same.count(f) == 1]
    if any(sort_key(f) > sort_key(sigma) for f in same):
        return None, "not-max-in-min-coface"
    return tau, "paired"


def _literal_build(max_dim, max_length, flags, scopes=KEPT_SCOPES):
    """(pairs, strata, reasons, would_pair, down) by definition; down maps
    each upper cell to the lower cell it holds as a regular face."""
    critical = flags.degenerate_policy == "critical"
    allow = PairingFlags(degenerate_policy="allow")
    tables = {}

    def faces_of(dim, length):
        if (dim, length) not in tables:
            tables[dim, length] = _coface_table(dim, length)
        return tables[dim, length]

    pairs, would_pair = [], []
    for length in range(max_length + 1):
        for n in range(0 if length == 0 else 1, max_dim):
            for sigma in enumerate_stratum(n, length):
                tau, _ = _literal_pair(sigma, flags, faces_of(n + 1, length),
                                       scopes)
                if tau is not None:
                    pairs.append((sigma, tau))
                elif critical and is_degenerate(sigma):
                    diag, _ = _literal_pair(sigma, allow,
                                            faces_of(n + 1, length), scopes)
                    if diag is not None:
                        would_pair.append((sigma, diag))
    matched = {x for pair in pairs for x in pair}
    strata, reasons = {}, {}
    for n in range(max_dim + 1):
        for length in range(max_length + 1 if n else 1):
            deg, unm = [], []
            for x in enumerate_stratum(n, length):
                if x in matched:
                    continue
                if critical and is_degenerate(x):
                    deg.append(x)
                    continue
                unm.append(x)
                reasons[x] = "upward-undecided" if n == max_dim else \
                    _literal_pair(x, flags, faces_of(n + 1, length),
                                  scopes)[1]
            if deg or unm:
                strata[StratumKey(n, length)] = (deg, unm)
    down = {tau: sigma for sigma, tau in pairs
            if faces_of(tau.dim, tau.length)[0][tau].count(sigma) == 1}
    return pairs, strata, reasons, would_pair, down


def _literal_csv(strata, reasons):
    rows = ["dim,length,simplex,degenerate,reason"]
    for key in sorted(strata, key=lambda k: (k.dim, k.length)):
        deg, unm = strata[key]
        rows += [f"{key.dim},{key.length},{x},true,degenerate"
                 for x in sorted(deg, key=sort_key)]
        rows += [f"{key.dim},{key.length},{x},false,{reasons[x]}"
                 for x in sorted(unm, key=sort_key)]
    return "\n".join(rows) + "\n"


def _assert_removed_scope_relation(kept, literal, scopes, flags, scope):
    """How the rule's upward pairs stand to the literal definition read
    with a scope pair the rule no longer offers."""
    kept, literal = dict(kept), dict(literal)
    verdict = validate_matching(Matching(list(literal.items()), scope, flags))
    face_scope, coface_scope = scopes
    if coface_scope == "any" and flags.degenerate_policy == "allow":
        # e_0 has the identity of dimension 1 as its only coface, twice
        assert not verdict.ok
        return
    assert verdict.ok
    if coface_scope == "any":
        # a least coface that holds sigma twice is degenerate, so under the
        # critical policy it leaves sigma critical: that scope only loses pairs
        assert literal.items() < kept.items()
    elif flags.degenerate_policy == "critical":
        # the repeated faces of a nondegenerate least coface decide no pair
        assert literal == kept
    else:
        # passing over repeated faces lets more cells be steepest
        assert kept.items() < literal.items()


@pytest.mark.parametrize("max_dim,max_length,scopes,flags", ORACLE_CASES)
def test_build_matching_agrees_with_the_literal_definition(
        max_dim, max_length, scopes, flags):
    pairs, strata, reasons, would_pair, _ = \
        _literal_build(max_dim, max_length, flags, scopes)
    scope = Scope(max_dim, max_length)
    matching, report = build_matching(max_dim, max_length, flags)
    if scopes != KEPT_SCOPES:
        _assert_removed_scope_relation(matching.pairs, pairs, scopes, flags,
                                       scope)
        return
    assert validate_matching(Matching(pairs, scope, flags)).ok
    assert matching.pairs == Matching(pairs, scope, flags).pairs
    assert list(report.strata.items()) == list(strata.items())
    assert list(report.reasons.items()) == list(reasons.items())
    assert report.would_pair == would_pair
    assert report.to_csv() == _literal_csv(strata, reasons)


@pytest.mark.parametrize("max_dim,max_length,scopes,flags", ORACLE_CASES)
def test_lazy_rule_agrees_with_the_literal_definition(
        max_dim, max_length, scopes, flags):
    pairs, _, _, _, down = _literal_build(max_dim, max_length, flags, scopes)
    rule = SteepnessRule(flags)
    if scopes != KEPT_SCOPES:
        kept = [(x, rule.pair_up(x)) for n in range(max_dim)
                for length in range(max_length + 1 if n else 1)
                for x in enumerate_stratum(n, length)
                if rule.pair_up(x) is not None]
        _assert_removed_scope_relation(kept, pairs, scopes, flags,
                                       Scope(max_dim, max_length))
        return
    up = dict(pairs)
    for n in range(max_dim + 1):
        for length in range(max_length + 1 if n else 1):
            for x in enumerate_stratum(n, length):
                if n < max_dim:
                    assert rule.pair_up(x) == up.get(x)
                assert rule.pair_down(x) == down.get(x)


def test_report_keeps_what_it_builds_on_first_read(built_3_3):
    _, report = built_3_3
    assert report.strata is report.strata
    assert report.would_pair is report.would_pair
    deg, _ = report.strata[StratumKey(2, 3)]
    assert report.degenerate_by_fiat(2, 3) is deg


# --- Matching container semantics ----------------------------------------------

def test_matching_rejects_non_adjacent_dimensions():
    with pytest.raises(ValueError, match="adjacent dimensions"):
        Matching([(S(1, (1, 1)), S(3, (1, 2, 3)))], Scope(3, 3),
                 PairingFlags())


def test_matching_rejects_length_crossing_pairs():
    with pytest.raises(ValueError, match="word-length strata"):
        Matching([(S(2, (1, 2)), S(3, (1, 2, 3)))], Scope(3, 3),
                 PairingFlags())


def test_is_critical_scope_errors(built_3_3):
    matching, _ = built_3_3
    with pytest.raises(ValueError, match="outside"):
        matching.is_critical(S(4, (4, 3, 2, 1)))
    with pytest.raises(ValueError, match="undecided"):
        matching.is_critical(S(3, (3, 2, 1)))
    # A cell at top dimension that IS matched downward is decidable.
    assert matching.is_critical(S(2, (1, 2, 1)))
    assert not matching.is_critical(S(2, (1, 2, 2)))


def test_matching_json_round_trip(built_3_3):
    matching, _ = built_3_3
    clone = Matching.from_json(matching.to_json())
    assert clone.pairs == matching.pairs
    assert clone.scope == matching.scope
    assert clone.flags == matching.flags


# --- validator ------------------------------------------------------------------

def test_validator_accepts_built_matching(built_3_3):
    matching, _ = built_3_3
    verdict = validate_matching(matching)
    assert verdict.ok
    assert verdict.errors == []
    assert verdict.cycle is None
    assert StratumKey(2, 3) in verdict.strata_checked
    assert "stratum" in verdict.note


def test_validator_accepts_allow_mode_matching():
    matching, _ = build_matching(3, 3, flags=ALLOW)
    assert validate_matching(matching).ok


def test_validator_rejects_duplicate_upper():
    # Both (1,2,2) and (1,1,2) are faces of (1,2,3), at indices 1 and 2.
    tau = S(3, (1, 2, 3))
    assert face(tau, 1) == S(2, (1, 2, 2))
    assert face(tau, 2) == S(2, (1, 1, 2))
    bad = Matching([(S(2, (1, 2, 2)), tau), (S(2, (1, 1, 2)), tau)],
                   Scope(3, 3), PairingFlags())
    verdict = validate_matching(bad)
    assert not verdict.ok
    assert any("injectivity" in e for e in verdict.errors)


def test_validator_rejects_irregular_pair():
    # (2,1) occurs twice among the faces of (3,1), so the pair is irregular;
    # (3,1) in dimension 3 is also degenerate, violating the critical policy.
    bad = Matching([(S(2, (2, 1)), S(3, (3, 1)))], Scope(3, 3),
                   PairingFlags())
    verdict = validate_matching(bad)
    assert not verdict.ok
    assert any("regularity" in e and "[1, 2]" in e for e in verdict.errors)
    assert any("policy" in e and "degenerate" in e for e in verdict.errors)


def test_validator_rejects_alternating_cycle():
    # Six individually regular, policy-clean pairs in stratum (2, 3) whose
    # up/down alternation closes into a cycle.
    pairs = [
        (S(2, (1, 2, 2)), S(3, (1, 3, 2))),
        (S(2, (1, 2, 1)), S(3, (2, 3, 1))),
        (S(2, (2, 2, 1)), S(3, (3, 2, 1))),
        (S(2, (2, 1, 1)), S(3, (3, 1, 2))),
        (S(2, (2, 1, 2)), S(3, (2, 1, 3))),
        (S(2, (1, 1, 2)), S(3, (1, 2, 3))),
    ]
    for sigma, tau in pairs:
        occurrences = [i for i in range(tau.dim + 1) if face(tau, i) == sigma]
        assert len(occurrences) == 1
        assert not is_degenerate(sigma) and not is_degenerate(tau)
    bad = Matching(pairs, Scope(3, 3), PairingFlags())
    verdict = validate_matching(bad)
    assert not verdict.ok
    assert any("acyclicity" in e for e in verdict.errors)
    witness = verdict.cycle
    assert witness is not None
    assert witness[0] == witness[-1]
    # The witness alternates between the two dimensions of the stratum.
    dims = [x.dim for x in witness]
    assert set(dims) == {2, 3}
    assert all(abs(a - b) == 1 for a, b in zip(dims, dims[1:]))
    # Every upward step in the witness is one of the declared pairs.
    declared = set(pairs)
    ups = [(a, b) for a, b in zip(witness, witness[1:]) if b.dim == a.dim + 1]
    assert ups and all(step in declared for step in ups)


def test_validator_scope_override_rejects_uncovered_pairs(built_3_3):
    # Passing a scope that cannot hold the matching is a usage error, not a
    # matching defect, so it raises instead of returning a failed verdict.
    matching, _ = built_3_3
    with pytest.raises(ValueError, match="outside scope"):
        validate_matching(matching, scope=Scope(2, 2))


# --- DOT rendering ---------------------------------------------------------------

def test_dot_output(built_3_3):
    matching, _ = built_3_3
    dot = matching_to_dot(matching)
    assert dot.startswith("digraph steepness {")
    assert dot.rstrip().endswith("}")
    assert 'subgraph cluster_2_3' in dot
    red_edges = [ln for ln in dot.splitlines() if "color=red" in ln]
    assert len(red_edges) == len(matching)
    # Matched pairs are drawn as reversed (upward) edges.
    assert '"d2:a1.a2.a2" -> "d3:a1.a2.a3" [color=red, penwidth=2];' in dot
    assert '"d1:a1.a1" -> "d2:a1.a2" [color=red, penwidth=2];' in dot
    # Degenerate cells are dashed.
    assert '"d2:a2.a2" [label="a2.a2", style=dashed];' in dot
