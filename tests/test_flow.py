"""Named cell families, the matched-pair operator V, and flow stabilization.

The flow identities (commutation with the boundary, V squared vanishing,
unit inner products on matched pairs) are checked both on hand-picked cells
and on randomized chains; stable values of the named families are frozen
from independent hand computation of the small cases. The one-dict
accumulators behind boundary, V and the flow are checked against a
term-by-term reference built from faces and Chain addition.
Morse boundary rows, which the library computes by two gradient-path
reductions, are checked against the iterated flow, kept here as the
oracle for whole slices. The backward reduction keeps only the cofaces a
row can read, from tables that invert the face map; the former walk, which
generated the cofaces of each cell it met and kept every coface that is
not upper, is kept here as the reference for its edges and columns.
The forward reduction reads byte-form words; its former projection on
tuple words is kept here as the reference for its values.
"""

import random
import time
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from fkmorse.chains import Chain, boundary, face_sum, incidence, inner
from fkmorse.errors import (SelfCheckError, StabilizationError,
                            TruncationError)
from fkmorse.flow import (
    FlowContext,
    beta_cell,
    sigma_cell,
    sigma_tilde_cell,
    tau_cell,
    tau_tilde_cell,
    y_power,
)
from fkmorse.homology import build_slice, morse_context
from fkmorse.pairing import (Matching, PairingFlags, Scope, SteepnessRule,
                             _coface_words, _postorder, build_matching)
from fkmorse.simplicial import (MAX_STRATUM_CELLS, Simplex,
                                enumerate_stratum, face, face_form, identity,
                                is_degenerate, is_degenerate_word)

from dense import densify
from routes import Unvalidated, matching_context

S = Simplex
ALLOW = PairingFlags(degenerate_policy="allow")


def _unit(x):
    return Chain.unit(x)


# --- named cell families --------------------------------------------------------

def test_named_cell_expansions():
    assert sigma_cell(3) == S(3, (3, 2, 1))
    assert sigma_cell(6) == S(6, (6, 5, 4, 3, 2, 1))
    assert sigma_tilde_cell(2) == S(2, (1, 2))
    assert sigma_tilde_cell(3) == S(3, (2, 3, 1))
    assert sigma_tilde_cell(4) == S(4, (3, 4, 2, 1))
    assert tau_cell(3) == S(3, (3, 2, 2))
    assert tau_cell(5) == S(5, (5, 4, 3, 2, 2))
    assert tau_tilde_cell(3) == S(3, (2, 3, 2))
    assert tau_tilde_cell(4) == S(4, (3, 4, 2, 2))
    assert y_power(1) == S(1, (1,))
    assert y_power(3) == S(1, (1, 1, 1))
    assert identity(2) == S(2, ())
    assert beta_cell(4, 1) == S(5, (5, 4, 3, 2))
    assert beta_cell(4, 4) == S(5, (5, 3, 2, 1))


def test_degenerate_corner_names():
    assert sigma_cell(0) == tau_cell(0) == S(0, ())
    assert sigma_cell(1) == tau_cell(1) == S(1, (1,))
    assert tau_cell(2) == S(2, (2, 2))


@pytest.mark.parametrize("bad", [
    lambda: sigma_cell(-1),
    lambda: tau_cell(-2),
    lambda: sigma_tilde_cell(1),
    lambda: tau_tilde_cell(2),
    lambda: beta_cell(3, 4),
    lambda: beta_cell(3, 0),
    lambda: beta_cell(0, 1),
    lambda: y_power(-1),
])
def test_named_cell_parameter_errors(bad):
    with pytest.raises(ValueError):
        bad()


def test_beta_is_a_top_word_with_one_letter_deleted():
    # beta(k, s) arises from the descending staircase in dimension k+1 by
    # deleting the letter s; the staircase word of length k survives.
    for k in range(2, 6):
        for s in range(1, k + 1):
            b = beta_cell(k, s)
            assert b.dim == k + 1
            expected = tuple(x for x in range(k + 1, 0, -1) if x != s)
            assert b.word == expected


def test_sigma_occurs_twice_in_beta_faces_at_adjacent_indices():
    # The descending staircase sigma_k occurs among the faces of beta(k, s)
    # at exactly the two adjacent indices k-s+1 and k-s+2.
    for k in range(2, 6):
        for s in range(1, k + 1):
            b = beta_cell(k, s)
            occurrences = tuple(i for i in range(b.dim + 1)
                                if face(b, i) == sigma_cell(k))
            assert occurrences == (k - s + 1, k - s + 2)


# --- contexts -------------------------------------------------------------------

@pytest.fixture(scope="module")
def ctx():
    return FlowContext(SteepnessRule(), Scope(7, 7))


@pytest.fixture(scope="module")
def ctx_allow():
    return FlowContext(SteepnessRule(ALLOW), Scope(7, 7))


def test_context_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        FlowContext(SteepnessRule(), Scope(3, 3), mode="reduced")


def test_context_rejects_normalized_allow_combination():
    with pytest.raises(ValueError, match="incoherent"):
        FlowContext(SteepnessRule(ALLOW), Scope(3, 3), mode="normalized")


def test_context_scope_must_fit_matching():
    matching, _ = build_matching(3, 3)
    with pytest.raises(ValueError, match="exceeds matching scope"):
        FlowContext(matching, Scope(4, 4))


def test_context_validates_explicit_matching():
    bad = Matching([(S(2, (2, 1)), S(3, (3, 1)))], Scope(3, 3),
                   PairingFlags())
    with pytest.raises(SelfCheckError, match="invalid matching"):
        FlowContext(bad, Scope(3, 3))
    # A pairing that is not a Matching is taken as it is.
    assert FlowContext(Unvalidated(bad), Scope(3, 3)).is_critical(
        S(1, (1,)))


# --- the operator V -------------------------------------------------------------

def test_V_on_matched_lower_cells(ctx):
    assert ctx.apply_V(_unit(y_power(2))) == _unit(S(2, (1, 2)))
    assert ctx.apply_V(_unit(S(2, (1, 2, 2)))) == _unit(S(3, (1, 2, 3)))


def test_V_vanishes_on_critical_and_upper_and_degenerate(ctx, ctx_allow):
    assert ctx.apply_V(_unit(y_power(1))).is_zero()
    assert ctx.apply_V(_unit(sigma_cell(3))).is_zero()
    assert ctx.apply_V(_unit(S(2, (1, 2)))).is_zero()   # upper of a pair
    assert ctx.apply_V(_unit(S(2, (2, 2)))).is_zero()   # degenerate
    # Under the allow policy the same degenerate word is matched upward.
    assert ctx_allow.apply_V(_unit(S(2, (2, 2)))) == _unit(S(3, (2, 3)))


def test_V_sends_doubled_head_staircases_to_twisted_tops(ctx):
    for r in range(2, 7):
        pre = S(r - 1, tuple([r - 1] + list(range(r - 1, 0, -1))))
        assert ctx.apply_V(_unit(pre)) == _unit(sigma_tilde_cell(r))


def test_V_is_linear(ctx):
    a = _unit(y_power(2))
    b = _unit(S(1, (1, 1, 1)))
    assert ctx.apply_V(2 * a - 3 * b) == \
        2 * ctx.apply_V(a) - 3 * ctx.apply_V(b)


def test_V_squares_to_zero_randomized():
    local = FlowContext(SteepnessRule(), Scope(6, 5))
    rng = random.Random(20260819)
    for _ in range(80):
        dim = rng.randint(1, 4)
        length = rng.randint(0, 5)
        word = tuple(rng.randint(1, dim) for _ in range(length))
        c = _unit(S(dim, word)) - 2 * _unit(S(dim, word[::-1]))
        assert local.apply_V(local.apply_V(c)).is_zero()


def test_V_guard_raises_at_top_dimension():
    small = FlowContext(SteepnessRule(), Scope(2, 2))
    with pytest.raises(TruncationError, match="beyond max_dim"):
        small.apply_V(_unit(S(2, (2, 1))))


def test_V_guard_names_the_least_cell_beyond_max_length():
    # the message must not depend on the order the terms were added in
    flow = FlowContext(SteepnessRule(), Scope(3, 2))
    short, long_ = _unit(S(2, (2, 1, 1))), _unit(S(2, (1, 2, 2, 1)))
    for chain in (short + long_, long_ + short):
        with pytest.raises(TruncationError) as caught:
            flow.apply_V(chain)
        assert str(caught.value) == \
            "cell a2.a1.a1 has word length 3, beyond max_length 2"


def test_V_reads_each_pair_incidence_once_per_context(monkeypatch):
    import fkmorse.flow as flow_module
    calls = []

    def counted(tau, x, mode="unnormalized"):
        calls.append((tau, x))
        return incidence(tau, x, mode)

    monkeypatch.setattr(flow_module, "incidence", counted)
    local = FlowContext(SteepnessRule(), Scope(4, 4))
    c = _unit(y_power(2)) + 2 * _unit(S(1, (1, 1, 1))) - _unit(y_power(1))
    first = local.apply_V(c)
    assert first == _reference_apply_V(local, c)
    assert sorted(x.length for _, x in calls) == [2, 3]
    assert local.apply_V(c) == first and len(calls) == 2
    # the record belongs to the context: a new one computes afresh
    FlowContext(SteepnessRule(), Scope(4, 4)).apply_V(c)
    assert len(calls) == 4


def test_V_rejects_an_irregular_pair_when_first_met():
    # (2,1) is the face of (3,1) at indices 1 and 2, with incidence 0
    bad = Matching([(S(2, (2, 1)), S(3, (3, 1)))], Scope(3, 3),
                   PairingFlags())
    local = FlowContext(Unvalidated(bad), Scope(3, 3))
    for _ in range(2):
        with pytest.raises(SelfCheckError, match="not a regular pair"):
            local.apply_V(_unit(S(2, (2, 1))))


def test_coface_table_rejects_an_irregular_pair():
    # under allow, the backward route reads the incidence of (2,1) in (3,1)
    # off its own face sum when it inverts the faces of the degenerate
    # 3-words, and fails before their table is kept; the critical policy
    # pairs no degenerate word, so that table asks the pairing nothing,
    # and the forward route meets the pair in d_3 of a3.a1.a2
    for policy in ("allow", "critical"):
        bad = Matching([(S(2, (2, 1)), S(3, (3, 1)))], Scope(3, 3),
                       PairingFlags(policy))
        local = FlowContext(Unvalidated(bad), Scope(3, 3))
        with pytest.raises(SelfCheckError, match=r"\(a2.a1, a3.a1\) has "
                           "incidence 0, not a regular pair"):
            local.boundary_rows([S(3, (3, 1, 2))], [S(2, (1, 1))])
        assert ((2, True) in local._edges) == (policy == "critical")


class _Asked:
    """The critical rule's answers under flags, with each word asked."""

    def __init__(self, flags):
        self.flags, self.asked, self._rule = flags, [], SteepnessRule()

    def up_word(self, dim, word):
        self.asked.append((dim, word))
        return self._rule.up_word(dim, word)

    def down_word(self, dim, word):
        self.asked.append((dim, word))
        return self._rule.down_word(dim, word)


def test_degenerate_coface_tables_ask_the_critical_rule_nothing():
    # the critical policy pairs no degenerate word, so its degenerate
    # tables take each as unpaired without asking; a policy name the
    # tables do not know makes them ask the same rule about every word,
    # and the tables are the same
    kept = _Asked(PairingFlags())
    asking = _Asked(SimpleNamespace(degenerate_policy="asked"))
    for mode in ("unnormalized", "normalized"):
        ctx, asked = (FlowContext(p, Scope(5, 5), mode)
                      for p in (kept, asking))
        for n in range(5):
            table = ctx._coface_table(n, True)
            assert table == asked._coface_table(n, True), (mode, n)
            assert table or n == 0
        assert not kept.asked and not any(ctx._incidence.values())
        assert asking.asked and all(is_degenerate_word(*x)
                                    for x in asking.asked)


def test_boundary_of_V_hits_the_source_with_coefficient_minus_one(ctx):
    matching, _ = build_matching(3, 3)
    for sigma, _tau in matching.pairs:
        dv = boundary(ctx.apply_V(_unit(sigma)))
        assert inner(dv, sigma) == -1


# --- the flow and its stabilization ----------------------------------------------

def test_flow_fixes_cells_with_V_free_boundaries(ctx):
    # Criticality alone does not freeze a cell in one step (V can still act
    # on its boundary); these cells have V-free boundaries and are fixed.
    for cell in (y_power(1), S(0, ()), S(1, ())):
        assert ctx.apply_flow(_unit(cell)) == _unit(cell)
    # A critical cell whose boundary meets matched cells moves in one step:
    assert ctx.apply_flow(_unit(sigma_cell(3))) == \
        _unit(sigma_cell(3)) - _unit(sigma_tilde_cell(3))


def test_flow_on_generator_powers(ctx):
    for r in range(1, 7):
        assert ctx.apply_flow(_unit(y_power(r + 1))) == \
            _unit(y_power(r)) + _unit(y_power(1))


def test_flow_commutes_with_boundary_spot_cases(ctx):
    cells = [S(2, (1, 2, 2)), S(3, (1, 2, 3)), S(2, (2, 1, 2)),
             S(4, (4, 3, 2, 1)), S(3, (3, 2, 2)), S(5, (5, 5, 4, 3, 2, 1))]
    for cell in cells:
        c = _unit(cell)
        assert boundary(ctx.apply_flow(c)) == ctx.apply_flow(boundary(c))


def test_flow_commutes_with_boundary_randomized(ctx):
    rng = random.Random(991)
    for _ in range(60):
        dim = rng.randint(2, 5)
        length = rng.randint(0, 6)
        word = tuple(rng.randint(1, dim) for _ in range(length))
        c = 3 * _unit(S(dim, word)) - _unit(S(dim, word[::-1]))
        assert boundary(ctx.apply_flow(c)) == ctx.apply_flow(boundary(c))


# --- reference accumulation: one immutable Chain per term --------------------------

def _reference_boundary(c, mode):
    out = Chain.zero(c.dim - 1)
    for x, coef in c.items():
        for i in range(x.dim + 1):
            y = face(x, i)
            if mode == "unnormalized" or not is_degenerate(y):
                out = out + (-coef if i % 2 else coef) * _unit(y)
    return out


def _reference_apply_V(flow, c):
    out = Chain.zero(c.dim + 1)
    for x, coef in c.items():
        tau = flow.pairing.pair_up(x)
        if tau is not None:
            out = out + (-incidence(tau, x) * coef) * _unit(tau)
    return out


def _reference_apply_flow(flow, c):
    out = c + _reference_boundary(_reference_apply_V(flow, c), flow.mode)
    if c.dim > 0:
        out = out + _reference_apply_V(
            flow, _reference_boundary(c, flow.mode))
    return out


def _random_chain(rng, dim):
    words = [tuple(rng.randint(1, dim) for _ in range(rng.randint(0, 5)))
             for _ in range(rng.randint(1, 4))]
    words.append(words[0])  # a repeated term, so some coefficients cancel
    return sum((rng.choice((-3, -2, -1, 1, 2, 3)) * _unit(S(dim, w))
                for w in words), Chain.zero(dim))


@pytest.mark.parametrize("mode", ["unnormalized", "normalized"])
def test_accumulators_match_the_term_by_term_reference(mode):
    flow = FlowContext(SteepnessRule(), Scope(7, 6), mode=mode)
    rng = random.Random(2014)
    for _ in range(120):
        c = _random_chain(rng, rng.randint(1, 5))
        assert boundary(c, mode) == _reference_boundary(c, mode)
        assert flow.apply_V(c) == _reference_apply_V(flow, c)
        assert flow.apply_flow(c) == _reference_apply_flow(flow, c)
    stable = c = _random_chain(rng, 4)
    while _reference_apply_flow(flow, stable) != stable:
        stable = _reference_apply_flow(flow, stable)
    assert flow.stabilize(c)[0] == stable


def test_stabilize_generator_powers(ctx):
    for r in range(1, 8):
        stable, iterations = ctx.stabilize(_unit(y_power(r)))
        assert stable == r * _unit(y_power(1))
        assert iterations == max(0, r - 1)
        assert ctx.apply_flow(stable) == stable


def test_stabilize_descending_staircases(ctx, ctx_allow):
    for r in range(2, 7):
        expected = _unit(sigma_cell(r)) - _unit(sigma_tilde_cell(r))
        for context in (ctx, ctx_allow):
            stable, _ = context.stabilize(_unit(sigma_cell(r)))
            assert stable == expected


def test_stabilize_identities(ctx):
    stable, iterations = ctx.stabilize(_unit(S(1, ())))
    assert stable == _unit(S(1, ())) and iterations == 0
    stable, iterations = ctx.stabilize(_unit(S(0, ())))
    assert stable == _unit(S(0, ())) and iterations == 0


def test_stabilize_doubled_tail_staircases_default_policy(ctx):
    # Under the critical policy every doubled-tail staircase is degenerate,
    # hence critical by fiat and already stable.
    for r in range(3, 7):
        stable, iterations = ctx.stabilize(_unit(tau_cell(r)))
        assert stable == _unit(tau_cell(r))
        assert iterations == 0


def test_stabilize_doubled_tail_staircases_allow_policy(ctx_allow):
    for r in range(4, 7):
        stable, _ = ctx_allow.stabilize(_unit(tau_cell(r)))
        assert stable == _unit(tau_cell(r)) - _unit(tau_tilde_cell(r))


def test_stabilize_smallest_doubled_tail_staircase_allow_policy(ctx_allow):
    # The r = 3 stable value is NOT tau(3) - tau-tilde(3): the flow drains
    # through a different degenerate word. This fixed value is load-bearing
    # for the boundary-entry table, so it is frozen here.
    stable, iterations = ctx_allow.stabilize(_unit(tau_cell(3)))
    assert stable == _unit(tau_cell(3)) - _unit(S(3, (2, 2, 3)))
    assert iterations == 2
    assert stable != _unit(tau_cell(3)) - _unit(tau_tilde_cell(3))


def test_stabilize_raises_on_tiny_iteration_cap():
    tiny = FlowContext(SteepnessRule(), Scope(4, 7))
    tiny.iteration_cap = 2
    with pytest.raises(StabilizationError, match="did not stabilize"):
        tiny.stabilize(_unit(y_power(7)))


def test_the_iteration_cap_is_the_summed_strata_in_closed_form():
    # the cap counts the cells of dimension max_dim and length <= max_length;
    # it was summed stratum by stratum, which took time quadratic in
    # max_length (3 s at Scope(2, 50_000)), before any chain was read
    for n in range(1, 7):
        for top in range(1, 12):
            summed = sum(n ** length for length in range(top + 1))
            assert FlowContext(SteepnessRule(), Scope(n, top)).iteration_cap \
                == max(64, summed), (n, top)
    start = time.perf_counter()
    flow = FlowContext(SteepnessRule(), Scope(2, 200_000))
    assert time.perf_counter() - start < 0.5
    assert flow.iteration_cap == 2 ** 200_001 - 1
    assert FlowContext(SteepnessRule(), Scope(1, 200_000)).iteration_cap == \
        200_001


def test_normalized_mode_flows():
    norm = FlowContext(SteepnessRule(), Scope(4, 4), mode="normalized")
    stable, iterations = norm.stabilize(_unit(tau_cell(3)))
    assert stable == _unit(tau_cell(3)) and iterations == 0
    stable, _ = norm.stabilize(_unit(sigma_cell(3)))
    assert stable == _unit(sigma_cell(3)) - _unit(sigma_tilde_cell(3))


# --- boundary entries between critical cells --------------------------------------

def test_boundary_entry_worked_values():
    ctx = FlowContext(SteepnessRule(), Scope(6, 5))
    assert ctx.morse_boundary_entry(sigma_cell(2), y_power(1)) == 0
    assert ctx.morse_boundary_entry(sigma_cell(3), sigma_cell(2)) == -1
    assert ctx.morse_boundary_entry(sigma_cell(4), sigma_cell(3)) == 1
    assert ctx.morse_boundary_entry(sigma_cell(5), sigma_cell(4)) == -1
    assert ctx.morse_boundary_entry(tau_cell(4), tau_cell(3)) == 1


def test_boundary_entry_allow_policy_tau_column():
    ctx = FlowContext(SteepnessRule(ALLOW), Scope(6, 5))
    assert ctx.morse_boundary_entry(tau_cell(4), tau_cell(3)) == 0


def test_boundary_entry_counts_dual_route_checks():
    ctx = FlowContext(SteepnessRule(), Scope(5, 4))
    assert ctx.dual_route_checks == 0
    ctx.morse_boundary_entry(sigma_cell(3), sigma_cell(2))
    assert ctx.dual_route_checks == 1
    ctx.morse_boundary_entry(sigma_cell(2), y_power(1))
    assert ctx.dual_route_checks == 2


def test_boundary_row_is_the_entries_of_one_critical_cell():
    flow = FlowContext(SteepnessRule(), Scope(6, 5))
    basis = [sigma_cell(3), tau_cell(3), sigma_cell(3)]
    assert densify(flow.boundary_rows([sigma_cell(4)], basis), 3) == [[
        flow.morse_boundary_entry(sigma_cell(4), low) for low in basis]]
    assert flow.dual_route_checks == 6
    assert flow.boundary_rows([sigma_cell(4)], []) == [{}]
    assert flow.dual_route_checks == 6
    # one call for several cells gives each cell's row, zeros left out
    cells = [sigma_cell(4), tau_cell(4), sigma_cell(4)]
    rows = flow.boundary_rows(cells, basis)
    assert flow.dual_route_checks == 15
    assert rows == [flow.boundary_rows([cell], basis)[0] for cell in cells]
    assert rows[0] == {0: 1, 2: 1} and rows[1] == {1: 1}
    assert flow.boundary_rows([], basis) == []


def test_boundary_rows_check_every_cell_before_any_reduction():
    flow = FlowContext(SteepnessRule(), Scope(6, 4))
    basis = [sigma_cell(3)]
    with pytest.raises(TruncationError, match="outside the flow scope"):
        flow.boundary_rows([sigma_cell(4), S(4, (4, 3, 2, 1, 1))], basis)
    with pytest.raises(ValueError, match="dimension-0 chains"):
        flow.boundary_rows([sigma_cell(4), identity(0)], basis)
    with pytest.raises(ValueError, match="reads dimension-2 cells"):
        flow.boundary_rows([sigma_cell(4), sigma_cell(3)], basis)
    with pytest.raises(ValueError, match="share one dimension"):
        flow.boundary_rows([sigma_cell(4)], basis + [sigma_cell(2)])
    # no reduction ran, so no memo holds a word, no coface table was built
    # and no row was checked
    assert flow.dual_route_checks == 0
    assert not any(flow._gradient.values()) and not flow._edges


def _tamper_columns(monkeypatch, flow, cell, shifts):
    """Make the backward route of flow add shifts[sigma] to the entry of
    cell in the column of each basis cell sigma."""
    honest = flow._column

    def column(dim, word):
        out = dict(honest(dim, word))
        sigma = S(dim, word)
        if sigma in shifts:
            out[cell.word] = out.get(cell.word, 0) + shifts[sigma]
        return out

    monkeypatch.setattr(flow, "_column", column)


def test_boundary_row_rejects_a_disagreeing_route(monkeypatch):
    flow = FlowContext(SteepnessRule(), Scope(6, 5))
    _tamper_columns(monkeypatch, flow, sigma_cell(4), {tau_cell(3): 1})
    with pytest.raises(SelfCheckError, match="routes disagree") as caught:
        flow.boundary_rows([sigma_cell(4)], [sigma_cell(3), tau_cell(3)])
    assert "at (a4.a3.a2.a1, a3.a2.a2): forward reduction gives 0, " \
        "backward reduction gives 1" in str(caught.value)
    assert flow.dual_route_checks == 0


def test_boundary_row_compares_whole_chains(monkeypatch):
    # The routes are compared at every basis cell, and the error names the
    # least differing one in (length, word) order, not in basis order.
    flow = FlowContext(SteepnessRule(), Scope(6, 5))
    basis = [tau_cell(3), beta_cell(2, 1), sigma_cell(3)]
    _tamper_columns(monkeypatch, flow, sigma_cell(4),
                    {tau_cell(3): 2, sigma_cell(3): -1})
    with pytest.raises(SelfCheckError, match="routes disagree") as caught:
        flow.boundary_rows([sigma_cell(4)], basis)
    assert "at (a4.a3.a2.a1, a3.a2.a1)" in str(caught.value)
    assert flow.dual_route_checks == 0


def _coface_words_within(n, word, max_length):
    """(i, tau_word) for every coface tau of length <= max_length with
    d_i(tau) = word.

    Only d_0 and d_{n+1} shorten a word: d_0 kills the top letter n+1, and
    d_{n+1} kills 1 after every other letter drops by one.  So the longer
    cofaces insert k >= 1 letters n+1 into the word, or k letters 1 into
    the word with every letter raised, at any positions; the same-length
    ones are those of pairing._coface_words.
    """
    length = len(word)
    if length > max_length:
        return
    yield from _coface_words(n, word)
    raised = tuple(g + 1 for g in word)
    for k in range(1, max_length - length + 1):
        total = length + k
        for slots in combinations(range(total), k):
            top, bottom = list(word), list(raised)
            for p in slots:
                top.insert(p, n + 1)
                bottom.insert(p, 1)
            yield 0, tuple(top)
            yield n + 1, tuple(bottom)


def _former_coface_edges(flow, n, z):
    """The gradient edges (y, weight) out of the dimension-n word z and the
    cofaces that are not upper (critical, degenerate and critical by fiat,
    or lower) with their incidence on z, from generated cofaces;
    incidences from chains.incidence."""
    pairing, up, rest = flow.pairing, [], []
    if flow.mode == "unnormalized" or not is_degenerate_word(n, z):
        inc = {}
        for i, w in _coface_words_within(n, z, flow.scope.max_length):
            inc[w] = inc.get(w, 0) + (-1 if i % 2 else 1)
        for w, v in inc.items():
            y = pairing.down_word(n + 1, w)
            if not v or y == z:
                continue
            if y is None:
                rest.append((w, v))
            else:
                up.append((y, -incidence(S(n + 1, w), S(n, y)) * v))
    return up, rest


def _reference_columns(flow, n):
    """The former backward column of each dimension-n word: gradient paths
    walked up through every coface, keeping each coface that is not upper
    with its weight."""
    edges = {}

    def coface_edges(z):
        if z not in edges:
            edges[z] = _former_coface_edges(flow, n, z)
        return edges[z]

    def column(sigma):
        order, cycle = _postorder(
            sigma, lambda z: [y for y, _ in coface_edges(z)[0]], ())
        assert cycle is None
        weight, out = {sigma: 1}, {}
        for z in reversed(order):
            h = weight.pop(z, 0)
            up, rest = coface_edges(z)
            for y, w in up:
                weight[y] = weight.get(y, 0) + w * h
            for w, v in rest:
                out[w] = out.get(w, 0) + v * h
        return {w: v for w, v in out.items() if v}

    return column


@pytest.mark.parametrize("policy,mode", [("critical", "unnormalized"),
                                         ("critical", "normalized"),
                                         ("allow", "unnormalized")])
def test_columns_are_the_former_columns_on_unpaired_words(policy, mode):
    # Every word of dimension n <= 4 and length <= 6, so every coface of
    # dimension <= 5; the context's scope reaches dimension 6.
    ctx = morse_context(4, 6, PairingFlags(policy), mode)[0]
    pairing = ctx.pairing
    dropped = kept_degenerate = 0
    for n in range(5):
        reference = _reference_columns(ctx, n)
        for length in range(7 if n else 1):
            for sigma in product(range(1, n + 1), repeat=length):
                former = reference(sigma)
                unpaired = {w: v for w, v in former.items()
                            if pairing.up_word(n + 1, w) is None}
                column = ctx._column(n, sigma)
                assert column == unpaired, (n, sigma)
                dropped += len(former) - len(unpaired)
                kept_degenerate += sum(is_degenerate_word(n + 1, w)
                                       for w in column)
    # the former columns hold lower cells; the new ones keep the unpaired
    # degenerate cells (critical by fiat under the critical policy) that
    # an unnormalized boundary reaches
    assert dropped > 0
    assert (kept_degenerate > 0) == (mode == "unnormalized")


@pytest.mark.parametrize("policy,mode", [("critical", "unnormalized"),
                                         ("critical", "normalized"),
                                         ("allow", "unnormalized")])
def test_coface_tables_are_the_generated_cofaces(policy, mode):
    # Every word of dimension n <= 4 and length <= 6, as in the columns
    # test above: the edges read off the inverted face tables are the
    # generated ones, less the lower cofaces, in any order.
    ctx = morse_context(4, 6, PairingFlags(policy), mode)[0]
    up_word = ctx.pairing.up_word
    for n in range(5):
        for length in range(7 if n else 1):
            for z in product(range(1, n + 1), repeat=length):
                up, rest = _former_coface_edges(ctx, n, z)
                ys, ws, unpaired = ctx._coface_edges(n, z)
                assert len(ys) == len(ws), (n, z)
                assert sorted(zip(ys, ws)) == sorted(up), (n, z)
                assert sorted(unpaired) == sorted(
                    (w, v) for w, v in rest
                    if up_word(n + 1, w) is None), (n, z)
    # degenerate words got tables only where a boundary reaches them
    assert {d for _, d in ctx._edges} == (
        {False} if mode == "normalized" else {False, True})


def _former_projection(flow, n):
    """The forward projection G of each dimension-n word as it was computed
    on tuple words: faces from face_sum, the pair's incidence from
    chains.incidence, memoized by word."""
    memo, pairing = {}, flow.pairing

    def project(x):
        if x in memo:
            return memo[x]
        partners = {}

        def faces(cell):
            tau = pairing.up_word(n, cell)
            if tau is None:
                return []
            other = [(y, v) for y, v in face_sum(n + 1, tau, flow.mode).items()
                     if y != cell]
            inc = incidence(S(n + 1, tau), S(n, cell))
            assert abs(inc) == 1
            partners[cell] = (-inc, other)
            return [y for y, _ in other]

        order, cycle = _postorder(x, faces, memo)
        assert cycle is None
        for cell in order:
            if cell not in partners:
                memo[cell] = {} if pairing.down_word(n, cell) is not None \
                    else {cell: 1}
                continue
            scale, other = partners.pop(cell)
            acc = {}
            for y, v in other:
                for z, u in memo[y].items():
                    acc[z] = acc.get(z, 0) + scale * v * u
            memo[cell] = {z: u for z, u in acc.items() if u}
        return memo[x]

    return project


@pytest.mark.parametrize("policy,mode", [("critical", "unnormalized"),
                                         ("critical", "normalized"),
                                         ("allow", "unnormalized")])
def test_projections_are_the_former_tuple_projections(policy, mode):
    # Every word of dimension n <= 4 and length <= 6, as in the columns
    # test above.  The projections read and give words in face_form(n + 1,
    # .), bytes at these dimensions; as words they are the former ones,
    # item by item and in order.
    ctx = morse_context(4, 6, PairingFlags(policy), mode)[0]
    flowed = 0
    for n in range(5):
        reference = _former_projection(ctx, n)
        for length in range(7 if n else 1):
            for x in product(range(1, n + 1), repeat=length):
                former = reference(x)
                got = ctx._projection(n, face_form(n + 1, x))
                assert all(type(z) is bytes for z in got), (n, x)
                assert [(tuple(z), u) for z, u in got.items()] == \
                    list(former.items()), (n, x)
                flowed += any(z != x for z in former)
    assert flowed > 0  # lower cells with a gradient path to other cells


@pytest.mark.parametrize("m,row", [(255, {}), (256, {0: 1}), (257, {})])
def test_boundary_rows_key_the_basis_in_the_form_of_the_cells_faces(m, row):
    # word_faces gives the faces of a dimension-m word in face_form(m, .),
    # bytes below 256 and words from 256 on; at m = 256 the basis, one
    # dimension lower, would be bytes in its own form and miss every face
    flow = FlowContext(SteepnessRule(), Scope(m + 1, 1))
    assert flow.boundary_rows([S(m, (2,))],
                              [S(m - 1, (2,)), S(m - 1, (1,))]) == [row]


def test_boundary_rows_refuse_a_matched_cell_before_any_reduction():
    lower, upper = S(4, (4, 4, 3, 2, 1)), sigma_tilde_cell(4)
    rule = SteepnessRule()
    assert rule.up_word(4, lower.word) is not None
    assert rule.down_word(4, upper.word) is not None
    flow = FlowContext(rule, Scope(6, 5))
    for cell in (lower, upper):
        with pytest.raises(ValueError, match=f"{cell} is matched"):
            flow.boundary_rows([sigma_cell(4), cell], [sigma_cell(3)])
    # a lower cell of an explicit matching: both routes would agree on a
    # row for it, yet no row is defined
    matching, _ = build_matching(5, 5)
    n, sw, _ = next(p for p in matching.word_pairs
                    if p[0] == 3 and len(p[1]) == 5)
    explicit = FlowContext(matching, Scope(5, 5))
    with pytest.raises(ValueError, match="is matched"):
        explicit.boundary_rows([S(n, sw)], [sigma_cell(2)])
    # a matched basis cell has no entry in any row: the backward walk up
    # from it would give one that the forward route never does
    for b in (S(3, (3, 3, 2, 1)), sigma_tilde_cell(3)):
        assert flow.pairing.up_word(3, b.word) is not None or \
            flow.pairing.down_word(3, b.word) is not None
        with pytest.raises(ValueError, match=f"{b} is matched"):
            flow.boundary_rows([sigma_cell(4)], [sigma_cell(3), b])
    # no reduction ran and no coface table was built
    for ctx in (flow, explicit):
        assert ctx.dual_route_checks == 0
        assert not any(ctx._gradient.values()) and not ctx._edges


def test_boundary_rows_refuse_an_oversized_stratum_before_walking_it(
        monkeypatch):
    # The coface table of a dimension-7 basis walks the dimension-8 words
    # of every length up to 9, and 8^7 is over the limit; so a rule-backed
    # row fails fast, before any word is enumerated.
    import fkmorse.flow as flow_module

    def refuse(*args):
        raise AssertionError("a word was enumerated")

    monkeypatch.setattr(flow_module, "surjective_words", refuse)
    monkeypatch.setattr(flow_module, "stratum_words", refuse)
    flow = FlowContext(SteepnessRule(ALLOW), Scope(9, 9))
    assert 8 ** 7 > MAX_STRATUM_CELLS
    with pytest.raises(TruncationError, match=r"stratum \(dim 8, length 7\)"):
        flow.boundary_rows([sigma_cell(8)], [sigma_cell(7)])
    assert not flow._edges and flow.dual_route_checks == 0


def _iterated_flow_row(flow, cell, basis):
    """The reference row: stabilize the boundary of the cell and bound its
    stabilization, check that the two chains agree in every coefficient,
    and read the basis cells."""
    stable_dc, _ = flow.stabilize(boundary(_unit(cell), flow.mode))
    stable_c, _ = flow.stabilize(_unit(cell))
    assert stable_dc == boundary(stable_c, flow.mode), cell
    return [inner(stable_dc, low) for low in basis]


@pytest.mark.parametrize("flags", [PairingFlags(), ALLOW])
def test_boundary_rows_of_degenerate_critical_cells_match_the_flow(flags):
    # Under the critical policy the tau family is degenerate and critical
    # by fiat, so the projections must keep degenerate critical cells.
    flow = FlowContext(SteepnessRule(flags), Scope(7, 6))
    oracle = FlowContext(SteepnessRule(flags), Scope(7, 6))
    for r in (3, 4, 5):
        cells = [c for c in (tau_cell(r + 1), sigma_cell(r + 1))
                 if flow.is_critical(c)]
        basis = [c for c in (tau_cell(r), sigma_cell(r), S(r, (r,) * r))
                 if flow.is_critical(c)]
        for cell in cells:
            assert densify(flow.boundary_rows([cell], basis), len(basis)) == \
                [_iterated_flow_row(oracle, cell, basis)]


@pytest.mark.parametrize("degree,length,policy,mode", [
    (1, 8, "critical", "unnormalized"),
    (3, 6, "critical", "unnormalized"),
    (4, 5, "critical", "unnormalized"),
    (3, 5, "critical", "normalized"),
    (3, 5, "allow", "unnormalized"),
])
def test_slices_equal_the_iterated_flow(degree, length, policy, mode):
    # the slices come from the lazy rule, the oracle's flow from an
    # explicit matching
    ctx, report, _ = morse_context(degree, length, PairingFlags(policy), mode)
    oracle = matching_context(degree, length, PairingFlags(policy), mode)[0]
    for slice_degree in (degree, degree + 1):
        slc = build_slice(ctx, report, slice_degree)
        assert densify(slc.rows, len(slc.basis_lo)) == [
            _iterated_flow_row(oracle, cell, slc.basis_lo)
            for cell in slc.basis_hi]


def test_boundary_row_refuses_a_cell_outside_the_scope():
    flow = FlowContext(SteepnessRule(), Scope(6, 3))
    with pytest.raises(TruncationError, match="outside the flow scope"):
        flow.boundary_rows([sigma_cell(4)], [sigma_cell(3)])


def test_boundary_entry_requires_critical_cells():
    ctx = FlowContext(SteepnessRule(), Scope(5, 4))
    with pytest.raises(ValueError, match="not critical"):
        ctx.morse_boundary_entry(sigma_cell(3), S(2, (1, 2, 2)))
    with pytest.raises(ValueError, match="not critical"):
        ctx.morse_boundary_entry(S(3, (1, 2, 3)), sigma_cell(2))
    with pytest.raises(ValueError, match="dim"):
        ctx.morse_boundary_entry(sigma_cell(3), S(3, (3, 2, 1)))


def test_is_critical_delegates_to_the_pairing(ctx):
    assert ctx.is_critical(y_power(1))
    assert ctx.is_critical(sigma_cell(4))
    assert not ctx.is_critical(y_power(2))
    assert not ctx.is_critical(S(2, (1, 2)))
