"""Tests for the steepness pairing, explicit matchings, and the validator.

Fixture strategy: small strata are checked against hand-enumerated pairings
(every face and coface of a length-3 word in dimension <= 3 can be listed by
hand), and the validator is exercised on deliberately broken matchings so
that each failure mode is witnessed by a distinct error class.
"""

import csv
import io
import json
import random
from typing import Optional

import pytest

from fkmorse import cli, pairing, simplicial
from fkmorse.errors import TruncationError
from fkmorse.pairing import (
    CriticalReport,
    Matching,
    PairingFlags,
    Scope,
    SteepnessRule,
    StratumKey,
    _coface_words,
    _steepness,
    build_matching,
    check_dot_size,
    coface_occurrences,
    matching_to_dot,
    regular_cofaces,
    validate_matching,
)
from fkmorse.simplicial import (Simplex, Word, enumerate_stratum, face,
                                face_ranks, face_word, is_degenerate,
                                is_degenerate_word, line_blocks, prefix_walk,
                                sort_key, stratum_table, stratum_words,
                                surjective_words, word_rank, word_text)

from routes import critical_walk, pair_down

S = Simplex
ALLOW = PairingFlags(degenerate_policy="allow")


def _csv_text(report):
    """The pair CSV of report, its blocks joined."""
    return "".join(report.to_csv())


def _dot_text(matching):
    """The DOT diagram of matching, its blocks joined."""
    return "".join(matching_to_dot(matching))


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

def steepness_pair_reason(sigma, flags=PairingFlags()):
    """The rule on one cell: its partner or None, with the reason."""
    tw, reason = _steepness(sigma.dim, sigma.word, flags)
    return (None if tw is None else S(sigma.dim + 1, tw)), reason


def steepness_pair(sigma, flags=PairingFlags()):
    return steepness_pair_reason(sigma, flags)[0]


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


# --- the counted rule, as the reference route --------------------------------
#
# The steepness rule as it was computed before its closed form: list every
# same-length coface, count the indices each comes from to find the regular
# ones, and compare the word with all faces of the lex-least of them.

def _same_length_face_words(dim: int, word: tuple[int, ...]) \
        -> list[tuple[int, ...]]:
    """The faces d_0..d_dim of a word that keep its length, with repeats."""
    length = len(word)
    return [f for f in (face_word(dim, word, i) for i in range(dim + 1))
            if len(f) == length]


def _counted_steepness(n: int, word: tuple[int, ...], flags: PairingFlags) \
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


def _counted_pair_down(dim: int, word: Word, flags: PairingFlags) \
        -> Optional[Word]:
    """The word w with _steepness(dim - 1, w) = word, from word's side."""
    if dim == 0:
        return None
    faces = _same_length_face_words(dim, word)
    if not faces:
        return None
    sw = max(faces)
    # only a regular face can pair: it must occupy a single face index
    if faces.count(sw) != 1:
        return None
    return sw if _counted_steepness(dim - 1, sw, flags)[0] == word else None


@pytest.mark.parametrize("flags", [PairingFlags(), ALLOW],
                         ids=["critical", "allow"])
def test_closed_form_rule_agrees_with_the_counted_rule(flags):
    """Partner, reason and down-partner of every word of every stratum
    with n <= 6, L <= 7 and n**L <= 5000, the down-partner by the closed
    form and by the round trip through the up rule; and the rule's
    partner-only up_word, against the partner _steepness gives."""
    rule = SteepnessRule(flags)
    checked = 0
    for n, length in Scope(6, 7).strata():
        if n ** length > 5000:
            continue
        for word in stratum_words(n, length):
            assert _steepness(n, word, flags) == \
                _counted_steepness(n, word, flags), (n, word)
            assert rule.up_word(n, word) == _steepness(n, word, flags)[0], \
                (n, word)
            assert rule.down_word(n, word) == pair_down(n, word, flags) == \
                _counted_pair_down(n, word, flags), (n, word)
            checked += 1
    assert checked == 14_466


@pytest.mark.parametrize("flags", [PairingFlags(), ALLOW],
                         ids=["critical", "allow"])
def test_closed_form_down_rule_equals_the_round_trip(flags):
    """SteepnessRule.down_word, read off the word's letters, against the
    round trip that lowers the top letter and asks the up rule back, on
    every stratum of dimension <= 7 with (dim + 1)**L <= 300,000."""
    rule = SteepnessRule(flags)
    checked = paired = 0
    for n, length in Scope(7, 18).strata():
        if (n + 1) ** length > 300_000:
            continue
        for word in stratum_words(n, length):
            down = rule.down_word(n, word)
            assert down == pair_down(n, word, flags), (n, word)
            checked += 1
            paired += down is not None
    assert checked == 346_384
    assert paired > 0


def test_the_down_rule_asks_the_up_rule_only_about_words(monkeypatch):
    # the closed form asks the up rule nothing; its check route asks it
    # only about words, since a word of dimension 0 or 1 holds no letter
    # it could lower into a word
    asked = []
    up_rule = _steepness

    def recording(n, word, flags):
        asked.append((n, word))
        return up_rule(n, word, flags)

    monkeypatch.setattr("fkmorse.pairing._steepness", recording)
    rule = SteepnessRule(ALLOW)
    for n, length in Scope(3, 4).strata():
        for word in stratum_words(n, length):
            rule.down_word(n, word)
    assert asked == []
    for n, length in Scope(3, 4).strata():
        for word in stratum_words(n, length):
            pair_down(n, word, ALLOW)
    assert asked
    assert all(set(word) <= set(range(1, n + 1)) for n, word in asked)


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
    assert [c.word for c in report.unmatched_nondegenerate(1, 1)] == [(1,)]
    assert [c.word for c in report.unmatched_nondegenerate(3, 3)] == \
        [(1, 3, 2), (3, 1, 2), (3, 2, 1)]


def _csv_reasons(report):
    """The reason column of the report's CSV for each critical cell that
    is not degenerate by fiat, in row order."""
    rows = csv.DictReader(io.StringIO(_csv_text(report)))
    return {S(int(r["dim"]), () if r["simplex"] == "e" else
              tuple(int(a[1:]) for a in r["simplex"].split("."))): r["reason"]
            for r in rows if r["reason"] != "degenerate"}


def test_report_reasons(built_3_3):
    _, report = built_3_3
    reasons = _csv_reasons(report)
    assert reasons[S(2, (1, 2, 1))] == "not-max-in-min-coface"
    assert reasons[S(2, (2, 1))] == "no-regular-coface"
    assert reasons[S(1, (1,))] == "no-regular-coface"
    # Cells at the top dimension of the scope cannot look upward.
    assert reasons[S(3, (3, 2, 1))] == "upward-undecided"
    # Degenerate-by-fiat cells carry no stored reason; it is constant.
    assert S(2, (2, 2)) not in reasons


def test_report_csv_shape(built_3_3):
    _, report = built_3_3
    text = _csv_text(report)
    lines = text.splitlines()
    assert lines[0] == "dim,length,simplex,degenerate,reason"
    rows = list(csv.DictReader(io.StringIO(text)))
    by_cell = {(r["dim"], r["length"], r["simplex"]): r for r in rows}
    assert by_cell[("2", "2", "a2.a2")]["degenerate"] == "true"
    assert by_cell[("2", "2", "a2.a2")]["reason"] == "degenerate"
    assert by_cell[("2", "2", "a2.a1")]["reason"] == "no-regular-coface"
    assert by_cell[("2", "3", "a1.a2.a1")]["reason"] == "not-max-in-min-coface"
    assert by_cell[("3", "3", "a3.a2.a1")]["reason"] == "upward-undecided"


def test_truncation_limit(monkeypatch):
    # stratum (2, 21) holds 2^21 > 2,000,000 words: the scope is refused
    # from its size alone, before any stratum is walked
    def no_walk(*args):
        raise AssertionError("a stratum was walked")

    monkeypatch.setattr(pairing, "surjective_words", no_walk)
    monkeypatch.setattr(pairing, "stratum_words", no_walk)
    with pytest.raises(TruncationError, match=r"stratum \(dim 2, length 21\)"):
        build_matching(2, 22)


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
    """(pairs, strata, reasons, down) by definition; down maps each upper
    cell to the lower cell it holds as a regular face."""
    critical = flags.degenerate_policy == "critical"
    tables = {}

    def faces_of(dim, length):
        if (dim, length) not in tables:
            tables[dim, length] = _coface_table(dim, length)
        return tables[dim, length]

    pairs = []
    for length in range(max_length + 1):
        for n in range(0 if length == 0 else 1, max_dim):
            for sigma in enumerate_stratum(n, length):
                tau, _ = _literal_pair(sigma, flags, faces_of(n + 1, length),
                                       scopes)
                if tau is not None:
                    pairs.append((sigma, tau))
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
    return pairs, strata, reasons, down


def _literal_csv(strata, reasons):
    rows = ["dim,length,simplex,degenerate,reason"]
    for key in sorted(strata, key=lambda k: (k.dim, k.length)):
        deg, unm = strata[key]
        rows += [f"{key.dim},{key.length},{x},true,degenerate"
                 for x in sorted(deg, key=sort_key)]
        rows += [f"{key.dim},{key.length},{x},"
                 f"{str(is_degenerate(x)).lower()},{reasons[x]}"
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
    pairs, strata, reasons, _ = \
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
    assert list(_csv_reasons(report).items()) == list(reasons.items())
    assert _csv_text(report) == _literal_csv(strata, reasons)


@pytest.mark.parametrize("max_dim,max_length,scopes,flags", ORACLE_CASES)
def test_lazy_rule_agrees_with_the_literal_definition(
        max_dim, max_length, scopes, flags):
    pairs, _, _, down = _literal_build(max_dim, max_length, flags, scopes)
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


@pytest.mark.parametrize("flags", [PairingFlags(), ALLOW],
                         ids=["critical", "allow"])
@pytest.mark.parametrize("max_dim,max_length", [(4, 4), (3, 5)])
def test_word_lookups_agree_with_the_cell_api(max_dim, max_length, flags):
    matching, _ = build_matching(max_dim, max_length, flags)
    rule = SteepnessRule(flags)
    for n, length in Scope(max_dim, max_length).strata():
        for x in enumerate_stratum(n, length):
            for pairing in (matching, rule):
                up = pairing.up_word(n, x.word)
                down = pairing.down_word(n, x.word)
                assert pairing.pair_up(x) == \
                    (None if up is None else S(n + 1, up))
                assert pairing.pair_down(x) == \
                    (None if down is None else S(n - 1, down))
                if up is not None:
                    assert pairing.down_word(n + 1, up) == x.word
                if pairing is matching and n == max_dim and down is None:
                    with pytest.raises(ValueError, match="undecided"):
                        matching.is_critical(x)
                else:
                    assert pairing.is_critical(x) == \
                        (up is None and down is None)
            if n < max_dim:
                assert matching.up_word(n, x.word) == rule.up_word(n, x.word)
            assert matching.down_word(n, x.word) == rule.down_word(n, x.word)


@pytest.mark.parametrize("top_first", [False, True],
                         ids=["strata-first", "top-dimension-first"])
def test_report_keeps_what_it_builds_on_first_read(top_first):
    # a fresh report, so that the read order is the one under test
    _, report = build_matching(3, 3)
    top = [report.unmatched_nondegenerate(3, length) for length in range(4)] \
        if top_first else None
    strata, csv = report.strata, _csv_text(report)
    words = {key: report.unmatched_words(key.dim, key.length)
             for key in strata}
    assert report.strata is strata and _csv_text(report) == csv
    for key, (deg, unm) in strata.items():
        assert report.degenerate_by_fiat(key.dim, key.length) is deg
        assert report.unmatched_nondegenerate(key.dim, key.length) is unm
        assert report.unmatched_words(key.dim, key.length) is words[key]
    if top_first:
        for length, cells in enumerate(top):
            assert report.unmatched_nondegenerate(3, length) is cells
        assert strata[StratumKey(3, 3)][1] is top[3]
    assert csv == _csv_text(build_matching(3, 3)[1])


@pytest.mark.parametrize("flags", [PairingFlags(), ALLOW],
                         ids=["critical", "allow"])
def test_csv_export_keeps_no_list_of_the_top_stratum(flags):
    # the max_dim stratum is the largest, and the export reads it once
    _, report = build_matching(2, 12, flags)
    text = _csv_text(report)
    assert (2, 12) not in report._words and (1, 12) in report._words
    assert _csv_text(report) == text
    # a list read by name is kept, and the export reads that one
    top = report.unmatched_words(2, 12)
    assert report.unmatched_words(2, 12) is top
    assert _csv_text(report) == text


def test_build_and_validation_make_no_cell_until_pairs_are_read(
        monkeypatch):
    made = []

    def counted(dim, word):
        made.append((dim, word))
        return Simplex(dim, word)

    monkeypatch.setattr(pairing, "Simplex", counted)
    matching, report = build_matching(5, 6)
    assert validate_matching(matching).ok
    _csv_text(report)
    _csv_text(build_matching(5, 6, ALLOW)[1])
    assert made == []
    monkeypatch.undo()
    # the rule's pairs as cells, in no particular order
    cells = [(S(n, w), S(n + 1, tw)) for n, length in Scope(5, 6).strata()
             if n < 5 for w in stratum_words(n, length)
             if (tw := _steepness(n, w, PairingFlags())[0]) is not None]
    random.Random(15).shuffle(cells)
    assert matching.pairs == Matching(cells, Scope(5, 6), PairingFlags()).pairs
    assert matching.pairs is matching.pairs
    assert len(matching) == len(cells)


@pytest.mark.parametrize("flags", [PairingFlags(), ALLOW],
                         ids=["critical", "allow"])
@pytest.mark.parametrize("max_dim,max_length", [(2, 6), (3, 5), (4, 4),
                                                (5, 4)])
def test_a_report_over_the_rule_is_the_built_report(max_dim, max_length,
                                                    flags):
    """A CriticalReport on the lazy rule, which makes the critical words
    below max_dim in closed form and walks the top stratum, asking the
    rule, against build_matching's, which keeps its walk's
    leftovers: the same critical words on every stratum, in order, and
    the same strata and CSV."""
    scope = Scope(max_dim, max_length)
    _, built = build_matching(max_dim, max_length, flags)
    rule = CriticalReport(SteepnessRule(flags), scope)
    for n, length in scope.strata():
        assert rule.unmatched_words(n, length) == \
            built.unmatched_words(n, length), (n, length)
    assert rule.strata == built.strata
    assert _csv_text(rule) == _csv_text(built)


@pytest.mark.parametrize("flags", [PairingFlags(), ALLOW],
                         ids=["critical", "allow"])
def test_generated_critical_words_are_the_walked_ones(flags):
    """The critical words a report on the rule makes below max_dim, from
    the rest words one letter shorter, against the check route that walks
    the stratum and asks the rule both ways, on every stratum with
    n <= 6 and L <= 8."""
    report = CriticalReport(SteepnessRule(flags), Scope(7, 8))
    found = 0
    for n, length in Scope(6, 8).strata():
        words = report.unmatched_words(n, length)
        assert words == critical_walk(n, length, flags), (n, length)
        found += len(words)
    assert found > 0


def test_the_pair_csv_walks_each_stratum_once(monkeypatch):
    walked = []

    def recording(dim, length):
        walked.append((dim, length))
        return surjective_words(dim, length)

    monkeypatch.setattr(pairing, "surjective_words", recording)
    _, report = build_matching(4, 4)
    _csv_text(report)
    assert sorted(walked) == sorted(set(walked)) == \
        list(Scope(4, 4).strata())


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


# Six individually regular, policy-clean pairs in stratum (2, 3) whose
# up/down alternation closes into a cycle.
CYCLIC_PAIRS = [
    (S(2, (1, 2, 2)), S(3, (1, 3, 2))),
    (S(2, (1, 2, 1)), S(3, (2, 3, 1))),
    (S(2, (2, 2, 1)), S(3, (3, 2, 1))),
    (S(2, (2, 1, 1)), S(3, (3, 1, 2))),
    (S(2, (2, 1, 2)), S(3, (2, 1, 3))),
    (S(2, (1, 1, 2)), S(3, (1, 2, 3))),
]


def test_validator_rejects_alternating_cycle():
    pairs = CYCLIC_PAIRS
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


def test_validator_lists_each_upper_words_faces_once(monkeypatch):
    matching, _ = build_matching(4, 5, validate=False)
    cyclic = Matching(CYCLIC_PAIRS, Scope(3, 3), PairingFlags())
    real = pairing.word_faces
    calls = []

    def counted(dim, word):
        calls.append((dim, word))
        return real(dim, word)

    monkeypatch.setattr(pairing, "word_faces", counted)
    for m, ok in ((matching, True), (cyclic, False)):
        calls.clear()
        assert validate_matching(m).ok is ok
        assert calls == [(n + 1, tw) for n, _, tw in m.word_pairs]


@pytest.mark.parametrize("n", [255, 256, 300])
def test_validator_reads_an_export_whose_letters_pass_a_byte(n):
    # from 256 on, a letter does not fit in a byte and faces come from
    # face_word; the regularity text is the one written before byte faces
    def export(sigma, tau):
        return json.dumps({
            "scope": {"max_dim": n, "max_length": 2},
            "flags": ALLOW.to_json_dict(),
            "pairs": [{"sigma": {"dim": n - 1, "word": sigma},
                       "tau": {"dim": n, "word": tau}}]})

    good = validate_matching(Matching.from_json(export([n - 1, n - 1],
                                                       [n - 1, n])))
    assert good.ok and good.errors == []
    bad = validate_matching(Matching.from_json(export([1, 2], [n - 1, n])))
    assert bad.errors == [f"regularity: a1.a2 occurs in faces of "
                          f"a{n - 1}.a{n} at indices [], not exactly once"]


def _reference_cycle(up: dict) -> Optional[list]:
    """The first alternating cycle of one stratum, {sigma: tau} in pair
    order, by a recursive depth-first search from each sigma in turn; the
    faces of each tau are listed afresh, from face, at every visit."""
    state: dict = {}
    path: list = []

    def visit(sigma):
        state[sigma] = "open"
        path.append(sigma)
        tau = up[sigma]
        for f in (face(tau, i) for i in range(tau.dim + 1)):
            if f.length != tau.length or f == sigma or f not in up:
                continue
            if state.get(f) == "open":
                return path[path.index(f):] + [f]
            if f not in state:
                loop = visit(f)
                if loop:
                    return loop
        state[sigma] = "done"
        path.pop()
        return None

    for root in up:
        if root not in state:
            loop = visit(root)
            if loop:
                return [x for s in loop[:-1] for x in (s, up[s])] + [loop[-1]]
    return None


def _reference_verdict(m: Matching) -> tuple:
    """(ok, errors, cycle, strata_checked) of validate_matching, written
    check by check: the regularity check and the stratum digraph each list
    the faces of tau for themselves."""
    errors: list = []
    seen: dict = {}
    strata: dict = {}
    for sigma, tau in m.pairs:
        hits = [i for i in range(tau.dim + 1) if face(tau, i) == sigma]
        if len(hits) != 1:
            errors.append(f"regularity: {sigma} occurs in faces of {tau} at "
                          f"indices {hits}, not exactly once")
        if m.flags.degenerate_policy == "critical" and (
                is_degenerate(sigma) or is_degenerate(tau)):
            errors.append(f"policy: pair ({sigma}, {tau}) contains a "
                          f"degenerate cell under the critical policy")
        for cell, role in ((sigma, "lower"), (tau, "upper")):
            if cell in seen:
                errors.append(f"injectivity: {cell} used as {role} after "
                              f"already appearing as {seen[cell]}")
            else:
                seen[cell] = role
        strata.setdefault((sigma.dim, sigma.length), {})[sigma] = tau
    cycle = None
    for dim, length in sorted(strata):
        found = _reference_cycle(strata[(dim, length)])
        if found and cycle is None:
            cycle = found
            errors.append(f"acyclicity: stratum (dim {dim}, length {length}) "
                          f"carries an alternating cycle "
                          + " > ".join(str(x) for x in found))
    return (not errors, errors, cycle,
            [StratumKey(dim, length) for dim, length in sorted(strata)])


def _random_matching(rng: random.Random) -> Matching:
    """Pairs in one to three strata of dimension <= 3 and length <= 4.  One
    in five is a subset of the rule's own pairs; the rest mix those with
    pairs of a random word and one of its same-length faces (often
    irregular, degenerate or closing a cycle), unrelated words, and
    repeats of a pair's lower or upper cell."""
    flags = rng.choice((PairingFlags(), ALLOW))
    strata = [(0, 0)] + [(n, k) for n in range(1, 4) for k in range(1, 5)]
    pairs: list = []
    for n, length in rng.sample(strata, rng.randint(1, 3)):
        lower = list(stratum_words(n, length))
        upper = list(stratum_words(n + 1, length))
        if rng.random() < 0.2:
            rule = [(S(n, w), S(n + 1, tw)) for w in lower
                    if (tw := _steepness(n, w, flags)[0]) is not None]
            pairs += rng.sample(rule, rng.randint(0, len(rule)))
            continue
        first = len(pairs)
        for _ in range(rng.randint(1, 10)):
            kind = rng.random()
            tw = rng.choice(upper)
            if kind < 0.25:
                sw = rng.choice(lower)
                tw = _steepness(n, sw, flags)[0] or tw
            elif kind < 0.85:
                faces = [f for f in (face(S(n + 1, tw), i).word
                                     for i in range(n + 2))
                         if len(f) == length]
                sw = rng.choice(faces) if faces else rng.choice(lower)
            else:
                sw = rng.choice(lower)
            pairs.append((S(n, sw), S(n + 1, tw)))
        if rng.random() < 0.3:
            s, t = rng.choice(pairs[first:])
            pairs.append((s, S(n + 1, rng.choice(upper))) if rng.random() < 0.5
                         else (S(n, rng.choice(lower)), t))
    return Matching(pairs, Scope(4, 4), flags)


def test_validator_agrees_with_a_reference_on_random_matchings():
    rng = random.Random(14)
    kinds = {"ok": 0, "regularity": 0, "policy": 0, "injectivity": 0,
             "acyclicity": 0}
    for _ in range(400):
        m = _random_matching(rng)
        verdict = validate_matching(m)
        assert (verdict.ok, verdict.errors, verdict.cycle,
                verdict.strata_checked) == _reference_verdict(m)
        kinds["ok"] += verdict.ok
        for kind in kinds:
            kinds[kind] += any(e.startswith(kind) for e in verdict.errors)
    # every verdict kind is exercised, not only the clean one
    assert min(kinds.values()) >= 20, kinds


def _from_words(cells: list, scope: Scope, flags: PairingFlags) -> Matching:
    """The matching of cells, handed over as word triples in (dim, length,
    word) order, the way build_matching hands over its walk's pairs."""
    matching = Matching((), scope, flags)
    matching._hold(sorted(((s.dim, s.word, t.word) for s, t in cells),
                          key=lambda p: (p[0], len(p[1]), p[1])))
    return matching


@pytest.mark.parametrize("cells,policy,kind", [
    ([(S(2, (1, 2, 2)), S(3, (1, 2, 3))), (S(2, (1, 2, 2)), S(3, (1, 3, 2)))],
     "critical", "injectivity"),
    ([(S(2, (1, 2, 2)), S(3, (1, 2, 3))), (S(2, (1, 1, 2)), S(3, (1, 2, 3)))],
     "critical", "injectivity"),
    ([(S(2, (2, 1)), S(3, (3, 1)))], "allow", "regularity"),
    ([(S(2, (2, 2)), S(3, (2, 3)))], "critical", "policy"),
    (CYCLIC_PAIRS, "critical", "acyclicity"),
], ids=["duplicate-lower", "duplicate-upper", "irregular", "degenerate",
        "cyclic"])
def test_validator_verdicts_agree_from_cells_and_from_words(cells, policy,
                                                             kind):
    flags = PairingFlags(degenerate_policy=policy)
    by_cells = validate_matching(Matching(cells, Scope(3, 3), flags))
    by_words = validate_matching(_from_words(cells, Scope(3, 3), flags))
    verdict = (by_cells.ok, by_cells.errors, by_cells.cycle,
               by_cells.strata_checked)
    assert verdict == (by_words.ok, by_words.errors, by_words.cycle,
                       by_words.strata_checked)
    assert verdict == _reference_verdict(Matching(cells, Scope(3, 3), flags))
    assert any(e.startswith(kind) for e in by_words.errors)


def test_validator_scope_override_rejects_uncovered_pairs(built_3_3):
    # The validator checks a matching against its own scope; pairs that
    # scope cannot hold are a usage error, not a matching defect, so they
    # raise instead of returning a failed verdict.
    matching, _ = built_3_3
    with pytest.raises(ValueError, match="outside scope"):
        validate_matching(Matching(matching.pairs, Scope(2, 2),
                                   matching.flags))


# --- DOT rendering ---------------------------------------------------------------

def test_dot_output(built_3_3):
    matching, _ = built_3_3
    dot = _dot_text(matching)
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


def _literal_dot(m):
    """The DOT renderer as it stood before it drew from words: Simplex
    objects from enumerate_stratum and face, one pairs_for_stratum scan per
    stratum, and each cell's text joined letter by letter."""
    def text(x):
        return ".".join(f"a{k}" for k in x.word) if x.word else "e"

    lines = ["digraph steepness {", "  rankdir=BT;",
             '  node [shape=box, fontname="monospace"];']
    for dim, length in sorted({(s.dim, s.length) for s, _ in m.pairs}):
        lines.append(f"  subgraph cluster_{dim}_{length} {{")
        lines.append(f'    label="stratum (dim {dim}, length {length})";')
        cells = list(enumerate_stratum(dim, length)) + \
            list(enumerate_stratum(dim + 1, length))
        pair_set = set(m.pairs_for_stratum(dim, length))
        up = dict(pair_set)
        for x in cells:
            style = ', style=dashed' if is_degenerate(x) else ''
            lines.append(
                f'    "d{x.dim}:{text(x)}" [label="{text(x)}"{style}];')
        for tau in enumerate_stratum(dim + 1, length):
            for i in range(dim + 2):
                f = face(tau, i)
                if f.length != length or up.get(f) == tau:
                    continue
                lines.append(f'    "d{tau.dim}:{text(tau)}" -> '
                             f'"d{f.dim}:{text(f)}" [color=gray];')
        for sigma, tau in sorted(pair_set, key=lambda p: sort_key(p[0])):
            lines.append(f'    "d{sigma.dim}:{text(sigma)}" -> '
                         f'"d{tau.dim}:{text(tau)}" [color=red, penwidth=2];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("flags", FLAG_COMBOS,
                         ids=lambda f: f.degenerate_policy)
@pytest.mark.parametrize("max_dim,max_length",
                         [(3, 3), (4, 4), (3, 5), (5, 4), (5, 5)])
def test_dot_output_equals_the_literal_renderer(max_dim, max_length, flags):
    matching, _ = build_matching(max_dim, max_length, flags)
    assert _dot_text(matching) == _literal_dot(matching)


@pytest.mark.parametrize("max_dim,max_length", [(3, 3), (4, 4), (5, 4)])
def test_dot_size_bound_covers_every_drawn_line(monkeypatch, max_dim,
                                                max_length):
    matching, _ = build_matching(max_dim, max_length, ALLOW)
    drawn = sum("[label=" in ln or " -> " in ln
                for ln in _dot_text(matching).splitlines())
    monkeypatch.setattr("fkmorse.pairing.MAX_STRATUM_CELLS", drawn - 1)
    with pytest.raises(TruncationError):
        check_dot_size(matching.scope)


def test_dot_size_refuses_from_the_scope_alone():
    for scope in (Scope(5, 5), Scope(6, 6), Scope(7, 6)):
        check_dot_size(scope)
    for scope in (Scope(6, 7), Scope(7, 7), Scope(6, 8), Scope(9, 10**6)):
        with pytest.raises(TruncationError):
            check_dot_size(scope)


def test_scope_strata_give_dimension_zero_length_zero_only():
    assert list(Scope(2, 2).strata()) == [
        (0, 0), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]


# --- the word-walk exports, as reference routes -------------------------------
#
# The pair CSV and DOT as they were rendered before the stratum tables: each
# word of a stratum made as a tuple, its text joined and its degeneracy
# tested one word at a time, and each upper word's same-length faces made
# with face_word and looked up in a dict of texts keyed by word.

def _word_walk_degenerate_words(report, dim, length):
    """The words of report.degenerate_by_fiat(dim, length), in word order."""
    if report.flags.degenerate_policy == "critical":
        yield from (w for w in stratum_words(dim, length)
                    if is_degenerate_word(dim, w))


def _word_walk_reasons(report):
    """Why each critical nondegenerate cell of report is unmatched, in
    stratum order; a cell at max_dim is "upward-undecided", since its
    cofaces are unseen."""
    top = report.scope.max_dim
    return {x: "upward-undecided" if n == top
            else _steepness(n, x.word, report.flags)[1]
            for n, length in report.scope.strata()
            for x in report.unmatched_nondegenerate(n, length)}


def _word_walk_csv(report):
    reasons = _word_walk_reasons(report)
    lines = ["dim,length,simplex,degenerate,reason"]
    for n, length in report.scope.strata():
        head = f"{n},{length},"
        lines += [f"{head}{word_text(w)},true,degenerate"
                  for w in _word_walk_degenerate_words(report, n, length)]
        lines += [f"{head}{word_text(x.word)},"
                  f"{str(is_degenerate(x)).lower()},{reasons[x]}"
                  for x in report.unmatched_nondegenerate(n, length)]
    return "\n".join(lines) + "\n"


def _word_walk_dot(m):
    lines = ["digraph steepness {", "  rankdir=BT;",
             '  node [shape=box, fontname="monospace"];']
    strata = {}
    for n, sw, tw in m.word_pairs:
        strata.setdefault((n, len(sw)), {})[sw] = tw
    for (dim, length), up in sorted(strata.items()):
        lines.append(f"  subgraph cluster_{dim}_{length} {{")
        lines.append(f'    label="stratum (dim {dim}, length {length})";')
        lo, hi = ({w: word_text(w) for w in stratum_words(n, length)}
                  for n in (dim, dim + 1))
        for n, text in ((dim, lo), (dim + 1, hi)):
            for w, wt in text.items():
                style = ', style=dashed' if is_degenerate_word(n, w) else ''
                lines.append(f'    "d{n}:{wt}" [label="{wt}"{style}];')
        lines += [f'    "d{dim + 1}:{tt}" -> "d{dim}:{lo[fw]}" [color=gray];'
                  for tw, tt in hi.items()
                  for fw in _same_length_face_words(dim + 1, tw)
                  if up.get(fw) != tw]
        lines += [f'    "d{dim}:{lo[sw]}" -> "d{dim + 1}:{hi[tw]}" '
                  f'[color=red, penwidth=2];' for sw, tw in up.items()]
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("flags", FLAG_COMBOS,
                         ids=lambda f: f.degenerate_policy)
@pytest.mark.parametrize("max_dim,max_length",
                         [(3, 3), (4, 4), (5, 5), (5, 6), (6, 5)])
def test_pair_exports_equal_the_word_walk_renderers(max_dim, max_length,
                                                    flags):
    matching, report = build_matching(max_dim, max_length, flags)
    reference, reference_report = build_matching(max_dim, max_length, flags)
    assert _csv_text(report) == _word_walk_csv(reference_report)
    assert _dot_text(matching) == _word_walk_dot(reference)


@pytest.mark.parametrize("flags", FLAG_COMBOS,
                         ids=lambda f: f.degenerate_policy)
def test_degenerate_words_are_the_cells_degenerate_by_fiat(flags):
    _, report = build_matching(4, 4, flags)
    for n, length in report.scope.strata():
        assert [S(n, w) for w in
                _word_walk_degenerate_words(report, n, length)] == \
            report.degenerate_by_fiat(n, length)


def test_stratum_tables_give_each_words_text_and_degeneracy():
    """Every stratum with n <= 6 and L <= 6, with n = 0, L = 0 and L < n
    among them; a mask names the letters of 1..n a word misses."""
    for n in range(7):
        for length in range(7 if n else 1):
            words = list(stratum_words(n, length))
            texts, degenerate = stratum_table(n, length)
            assert texts == [word_text(w) for w in words], (n, length)
            assert degenerate == [is_degenerate_word(n, w) for w in words]
            walked, masks = prefix_walk(n, length, True)
            assert walked == ([""] if length == 0 else texts)
            assert masks == [sum(1 << k for k in range(1, n + 1)
                                 if k not in w) for w in words]
            assert prefix_walk(n, length, False) == (walked, None)
    # a stratum shorter than its dimension is all degenerate, with no mask
    texts, degenerate = stratum_table(100_000, 1)
    assert texts[-1] == "a100000" and all(degenerate)


# --- the joined exports, as reference routes ---------------------------------
#
# The pair CSV and DOT as they were rendered before they came in blocks: every
# line of the export in one list, joined into one string, and each stratum's
# degenerate rows from one prefix walk over all its words of length L - 1.

def _joined_degenerate_rows(head, dim, length):
    if not length:
        return [f"{head}e,true,degenerate"] if dim else []
    texts, masks = prefix_walk(dim, length - 1, length >= dim)
    dot = "." if length > 1 else ""
    ends = [f"{dot}a{k},true,degenerate" for k in range(1, dim + 1)]
    if masks is None:
        return [f"{head}{t}{e}" for t in texts for e in ends]
    kept = [[e for k, e in enumerate(ends, 1) if m & ~(1 << k)]
            for m in range(2 << dim)]
    return [f"{head}{t}{e}" for t, m in zip(texts, masks) for e in kept[m]]


def _joined_table(dim, length):
    """stratum_table as it stood: one prefix walk over the whole stratum."""
    texts, masks = prefix_walk(dim, length, length >= dim)
    if not length:
        texts = ["e"]
    if masks is None:
        return texts, [True] * len(texts)
    return texts, [m != 0 for m in masks]


def _joined_csv(report):
    lines = ["dim,length,simplex,degenerate,reason"]
    for n, length in report.scope.strata():
        head = f"{n},{length},"
        if report.flags.degenerate_policy == "critical":
            lines += _joined_degenerate_rows(head, n, length)
        if n == report.scope.max_dim:
            lines += [f"{head}{word_text(w)},"
                      f"{str(is_degenerate_word(n, w)).lower()},"
                      "upward-undecided"
                      for w in report._unmatched_walk(n, length)]
        else:
            lines += [f"{head}{word_text(w)},"
                      f"{str(is_degenerate_word(n, w)).lower()},"
                      f"{_steepness(n, w, report.flags)[1]}"
                      for w in report.unmatched_words(n, length)]
    return "\n".join(lines) + "\n"


def _joined_dot(m):
    lines = ["digraph steepness {", "  rankdir=BT;",
             '  node [shape=box, fontname="monospace"];']
    strata = {}
    for n, sw, tw in m.word_pairs:
        strata.setdefault((n, len(sw)), {})[sw] = tw
    for (dim, length), up in sorted(strata.items()):
        lines.append(f"  subgraph cluster_{dim}_{length} {{")
        lines.append(f'    label="stratum (dim {dim}, length {length})";')
        (lo, lo_deg), (hi, hi_deg) = (_joined_table(n, length)
                                      for n in (dim, dim + 1))
        for n, texts, deg in ((dim, lo, lo_deg), (dim + 1, hi, hi_deg)):
            lines += [f'    "d{n}:{t}" [label="{t}"'
                      f'{", style=dashed" if d else ""}];'
                      for t, d in zip(texts, deg)]
        ranked = [(word_rank(dim, sw), word_rank(dim + 1, tw))
                  for sw, tw in up.items()]
        partner = [-1] * len(lo)
        for s, t in ranked:
            partner[s] = t
        faces = zip(*(face_ranks(dim + 1, length, i) for i in range(dim + 2)))
        heads = [f'    "d{dim + 1}:{t}" -> ' for t in hi]
        tails = [f'"d{dim}:{t}" [color=gray];' for t in lo]
        lines += [head + tails[f]
                  for t, (head, ranks) in enumerate(zip(heads, faces))
                  for f in ranks if f >= 0 and partner[f] != t]
        lines += [f'    "d{dim}:{lo[s]}" -> "d{dim + 1}:{hi[t]}" '
                  f'[color=red, penwidth=2];' for s, t in ranked]
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _assert_blocks(blocks):
    """Each block of an export ends in a newline and holds at most
    line_blocks' number of lines, all of them nonempty."""
    for block in blocks:
        assert block.endswith("\n")
        lines = block[:-1].split("\n")
        assert 0 < len(lines) <= simplicial._BLOCK_LINES
        assert all(lines)


@pytest.mark.parametrize("flags", FLAG_COMBOS,
                         ids=lambda f: f.degenerate_policy)
@pytest.mark.parametrize("max_dim,max_length",
                         [(1, 1), (1, 9), (2, 1), (3, 3), (4, 4), (5, 5),
                          (5, 6), (6, 5)])
def test_pair_export_blocks_join_to_the_joined_renderers(max_dim, max_length,
                                                         flags):
    matching, report = build_matching(max_dim, max_length, flags)
    reference, reference_report = build_matching(max_dim, max_length, flags)
    for blocks, joined in ((list(report.to_csv()),
                            _joined_csv(reference_report)),
                           (list(matching_to_dot(matching)),
                            _joined_dot(reference))):
        _assert_blocks(blocks)
        assert "".join(blocks) == joined
        assert len(blocks) == -(-joined.count("\n") //
                                simplicial._BLOCK_LINES)


def _head_lengths():
    """For dimensions 2 and 3, the shortest walk split_walk gives a
    nonempty head: one letter past its longest tail."""
    out = {}
    for dim in (2, 3):
        cut = 0
        while dim ** (cut + 1) <= simplicial._TAIL_WORDS:
            cut += 1
        out[dim] = cut + 1
    return out


HEAD = _head_lengths()
# The degenerate rows walk to length L - 1, so (n, HEAD[n]) is the last
# scope whose walk has no head and (n, HEAD[n] + 1) the first with one; the
# top stratum and enumerate walk to L.  (2, 15), (2, 16) and (3, 10) would
# straddle a split with tails of 2^14 words.
CLI_SCOPES = sorted({(1, 1), (1, 12), (2, 1), (3, 1), (6, 1), (4, 4), (5, 5),
                     (2, HEAD[2] - 1), (2, HEAD[2]), (2, HEAD[2] + 1),
                     (3, HEAD[3]), (3, HEAD[3] + 1),
                     (2, 15), (2, 16), (3, 10)})


@pytest.mark.parametrize("sink", ["stdout", "output"])
@pytest.mark.parametrize("policy", ["critical", "allow"])
@pytest.mark.parametrize("max_dim,max_length", CLI_SCOPES)
def test_pair_cli_exports_print_the_joined_renderers_bytes(
        capsys, tmp_path, max_dim, max_length, policy, sink):
    """Every byte the CLI writes for the CSV and, up to length 5, the DOT,
    to stdout or to --output, against the joined renderers on a matching
    built apart.  The DOT draws no split walk, and its longer scopes here
    take a second each."""
    matching, report = build_matching(max_dim, max_length,
                                      PairingFlags(degenerate_policy=policy))
    formats = {"csv": lambda: _joined_csv(report)}
    if max_length <= 5:
        formats["dot"] = lambda: _joined_dot(matching)
    for fmt, joined in formats.items():
        argv = ["pair", "--max-dim", str(max_dim), "--max-length",
                str(max_length), "--format", fmt, "--degenerate-policy",
                policy]
        target = tmp_path / f"export.{fmt}"
        if sink == "output":
            argv += ["--output", str(target)]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        if sink == "output":
            assert out == ""
            out = target.read_text(encoding="utf-8")
        assert out == joined(), fmt


def test_split_walk_is_the_prefix_walk_in_parts():
    """Every stratum with n <= 4 and L <= 7, the lengths around the first
    split at n = 2 and 3, with and without masks, and a dimension over
    the tail size; each part is one head with every tail."""
    cases = [(n, length) for n in range(5) for length in range(8 if n else 1)]
    cases += [(n, HEAD[n] + k) for n in (2, 3) for k in (-1, 0, 1)]
    for n, length in cases:
        for masks in (False, True):
            texts, walked = prefix_walk(n, length, masks)
            parts = list(simplicial.split_walk(n, length, masks))
            assert [t for part, _ in parts for t in part] == texts
            if masks:
                assert [m for _, ms in parts for m in ms] == walked
            else:
                assert all(ms is None for _, ms in parts)
            sizes = {len(part) for part, _ in parts}
            assert len(sizes) == 1 and sizes.pop() <= simplicial._TAIL_WORDS
            assert len(parts) == 1 or length >= HEAD.get(n, 0)
        for i in range(n + 1 if n else 0):
            assert [r for part in simplicial.split_face_ranks(n, length, i)
                    for r in part] == face_ranks(n, length, i), (n, length, i)
    # one letter is more words than a tail may hold, so it is the tail
    n = simplicial._TAIL_WORDS + 8
    letters = [f"a{k}" for k in range(1, n + 1)]
    parts = simplicial.split_walk(n, 2, False)
    for head, (part, masks) in zip(letters, parts, strict=True):
        assert part == [f"{head}.{t}" for t in letters] and masks is None


def test_line_blocks_end_each_line_and_cut_at_the_block_size():
    """The lines of the parts in turn, in blocks of _BLOCK_LINES."""
    size = simplicial._BLOCK_LINES
    assert list(line_blocks([])) == list(line_blocks([[], []])) == []
    assert list(line_blocks([[], ["a"], []])) == ["a\n"]
    lines = [str(k) for k in range(2 * size + 1)]
    # a part may be a list or a lazy iterable, and a block spans parts
    blocks = list(line_blocks([lines[:3], iter(lines[3:])]))
    assert [b.count("\n") for b in blocks] == [size, size, 1]
    assert "".join(blocks) == "".join(f"{x}\n" for x in lines)


def test_face_ranks_are_the_ranks_of_the_same_length_faces():
    for dim in range(1, 6):
        for length in range(6):
            words = list(stratum_words(dim, length))
            assert [word_rank(dim, w) for w in words] == \
                list(range(len(words)))
            lower = {w: r for r, w in enumerate(stratum_words(dim - 1,
                                                              length))}
            for i in range(dim + 1):
                ranks = face_ranks(dim, length, i)
                assert len(ranks) == len(words)
                for w, r in zip(words, ranks):
                    f = face_word(dim, w, i)
                    assert r == (lower[f] if len(f) == length else -1), \
                        (dim, w, i)
