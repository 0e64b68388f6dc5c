"""Former production routes of the pairing, kept as the tests' check routes.

critical_walk finds the critical words of a stratum by walking every word
the rule can pair and asking it both ways, as CriticalReport did below
max_dim before it generated them in closed form.  pair_down finds the word
a dimension-dim word pairs down with by lowering its one copy of dim and
asking the steepness rule back, as SteepnessRule.down_word did before its
closed form.  matching_context builds the homology path's flow context
and critical report on an explicit matching from build_matching, as
morse_context did before it ran on the rule.  Unvalidated shows a Matching through its pairing methods
only, so that FlowContext, which validates a Matching, takes a broken one
as it is and the flow's own runtime checks meet its faults.
"""

from typing import Optional

from fkmorse import pairing
from fkmorse.flow import FlowContext, check_mode
from fkmorse.pairing import (DEFAULT_FLAGS, PairingFlags, SteepnessRule,
                             build_matching)
from fkmorse.simplicial import Word


def critical_walk(dim: int, length: int, flags: PairingFlags) -> list[Word]:
    """The words of stratum (dim, length) that the rule pairs neither up
    nor down, in lex order: under critical the surjective words, under
    allow every word, each asked."""
    rule = SteepnessRule(flags)
    return [w for w in pairing._walked_words(dim, length, flags)
            if rule.up_word(dim, w) is None and
            rule.down_word(dim, w) is None]


def pair_down(dim: int, word: Word, flags: PairingFlags) -> Optional[Word]:
    """The word w with up_word(dim - 1, w) = word, from word's side: a
    partner holds the letter dim once, and lowering it gives w back."""
    if dim < 2 or word.count(dim) != 1:
        return None
    p = word.index(dim)
    sw = word[:p] + (dim - 1,) + word[p + 1:]
    # read off the class, so that a test may record what is asked
    return sw if SteepnessRule(flags).up_word(dim - 1, sw) == word else None


def matching_context(degree: int, max_length: int,
                     flags: PairingFlags = DEFAULT_FLAGS,
                     mode: str = "unnormalized"):
    """(flow context, critical report, matching) for degree-d homology on
    build_matching(d + 2, L), validated, as morse_context returned them."""
    check_mode(mode, flags)
    matching, report = build_matching(degree + 2, max_length, flags)
    return FlowContext(matching, matching.scope, mode), report, matching


class Unvalidated:
    """A Matching's pairs, with its scope and flags, through every
    attribute but its type."""

    def __init__(self, matching: pairing.Matching) -> None:
        self._matching = matching

    def __getattr__(self, name: str):
        return getattr(self._matching, name)
