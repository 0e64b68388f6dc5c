"""The discrete vector field V, the flow id + dV + Vd, and Morse boundaries.

V sends a matched lower cell to minus-incidence times its partner and
everything else to zero; iterating the flow on a chain reaches a fixed
point because the matching is acyclic and word length filters the strata.
Morse boundary entries are always computed along both routes of the
flow/boundary exchange (stabilize the boundary vs. bound the stabilization),
whose two chains must agree exactly, term by term.
"""

from __future__ import annotations

from typing import Optional, Union

from .chains import Chain, boundary, incidence, inner
from .errors import SelfCheckError, StabilizationError, TruncationError
from .pairing import Matching, Scope, SteepnessRule, validate_matching
from .simplicial import Simplex, identity, sort_key, stratum_size

Pairing = Union[Matching, SteepnessRule]


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

class FlowContext:
    """Scope-guarded flow computations over a fixed pairing.

    The pairing may be an explicit Matching (validated here unless told
    otherwise) or a lazy SteepnessRule for scopes too large to enumerate.
    Chains whose flow would need cells outside the scope raise rather than
    returning a partial answer.
    """

    def __init__(self, pairing: Pairing, scope: Scope,
                 mode: str = "unnormalized", validate: bool = True,
                 iteration_cap: Optional[int] = None) -> None:
        if mode not in ("unnormalized", "normalized"):
            raise ValueError(f"unknown chain mode {mode!r}")
        if mode == "normalized" and pairing.flags.degenerate_policy == "allow":
            raise ValueError(
                "normalized chains drop degenerate cells; the allow policy "
                "pairs them, so the combination is incoherent")
        if isinstance(pairing, Matching):
            if scope.max_dim > pairing.scope.max_dim or \
                    scope.max_length > pairing.scope.max_length:
                raise ValueError(
                    f"flow scope {scope} exceeds matching scope {pairing.scope}")
            if validate:
                verdict = validate_matching(pairing)
                if not verdict.ok:
                    raise SelfCheckError(
                        "refusing to build a flow on an invalid matching: "
                        + "; ".join(verdict.errors))
        self.pairing = pairing
        self.scope = scope
        self.mode = mode
        self.dual_route_checks = 0
        # <boundary tau, x> of each matched x met so far, checked to be +-1
        # when first computed; the pairing is fixed, so it never changes
        self._incidence: dict[Simplex, int] = {}
        if iteration_cap is None:
            iteration_cap = max(
                64,
                sum(stratum_size(scope.max_dim, length)
                    for length in range(scope.max_length + 1)))
        self.iteration_cap = iteration_cap

    def _guard(self, c: Chain) -> None:
        if c.dim + 1 > self.scope.max_dim:
            raise TruncationError(
                f"V on a dimension-{c.dim} chain needs dimension "
                f"{c.dim + 1} cells, beyond max_dim {self.scope.max_dim}",
                dim=c.dim + 1)
        max_length = self.scope.max_length
        beyond = [x for x in c._terms if len(x.word) > max_length]
        if beyond:
            # name the least offender, so the message does not depend on
            # the order the chain's terms were added in
            x = min(beyond, key=sort_key)
            raise TruncationError(
                f"cell {x} has word length {x.length}, beyond max_length "
                f"{max_length}", length=x.length)

    def apply_V(self, c: Chain) -> Chain:
        self._guard(c)
        terms = []
        for x, coef in c._terms.items():
            tau = self.pairing.pair_up(x)
            if tau is None:
                continue
            inc = self._incidence.get(x)
            if inc is None:
                inc = incidence(tau, x)
                if abs(inc) != 1:
                    raise SelfCheckError(
                        f"matched pair ({x}, {tau}) has incidence {inc}, "
                        f"not a regular pair")
                self._incidence[x] = inc
            terms.append((tau, -inc * coef))
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

    def is_critical(self, x: Simplex) -> bool:
        return self.pairing.is_critical(x)

    def boundary_row(self, cell: Simplex, basis: list[Simplex]) -> list[int]:
        """<boundary-tilde cell, b> for each b in basis.

        The flow commutes with the boundary in either chain mode, so the two
        exchange routes (stabilize the boundary vs. bound the stabilization)
        must give equal chains, compared whole, in every coefficient.
        """
        stable_dc, _ = self.stabilize(boundary(Chain.unit(cell), self.mode))
        stable_c, _ = self.stabilize(Chain.unit(cell))
        d_stable_c = boundary(stable_c, self.mode)
        if stable_dc != d_stable_c:
            x = (stable_dc - d_stable_c).support()[0]
            raise SelfCheckError(
                f"flow/boundary exchange failed at ({cell}, {x}): "
                f"stabilized boundary gives {inner(stable_dc, x)}, boundary "
                f"of the stabilization gives {inner(d_stable_c, x)}")
        self.dual_route_checks += len(basis)
        return [inner(stable_dc, low) for low in basis]

    def morse_boundary_entry(self, c: Simplex, sigma: Simplex) -> int:
        """<boundary-tilde c, sigma> via both exchange routes, asserted equal."""
        if c.dim != sigma.dim + 1:
            raise ValueError(
                f"entry needs c.dim = sigma.dim + 1, got {c.dim}, {sigma.dim}")
        for cell in (c, sigma):
            if not self.is_critical(cell):
                raise ValueError(f"{cell} is not critical; entries are only "
                                 f"defined between critical cells")
        return self.boundary_row(c, [sigma])[0]
