"""Facts from topology and combinatorics that the code never assumes.

* H_d(Omega S^2; Z) is Z in every degree d (James; Bott-Samelson).  The
  truncated Morse complex at word length 5 already has the stable answer
  for d <= 5, and it keeps it at word length 6, and at 7 for d <= 3.
* Matched pairs sit in one stratum and in adjacent dimensions, so they
  cancel in an alternating count.  Per word length L, the nondegenerate
  critical cells therefore have the Euler characteristic of all
  nondegenerate words of length L: sum_n (-1)^n n! S(L, n) = (-1)^L for
  L >= 1, counting the surjections onto n letters (dimension 0 has only
  the empty word).
"""

import math

import pytest

from fkmorse.homology import compute_homology
from fkmorse.pairing import build_matching


@pytest.mark.parametrize(
    "degree,length",
    [pytest.param(d, 5, id=str(d)) for d in range(6)]
    + [pytest.param(d, 6, id=f"{d}-at-6") for d in range(6)]
    + [pytest.param(d, 7, id=f"{d}-at-7") for d in range(4)])
def test_loop_space_of_the_two_sphere_has_integral_homology_z(degree, length):
    result = compute_homology(degree, length)
    assert (result.betti, result.torsion) == (1, [])


def _surjections(length, letters):
    return sum((-1) ** k * math.comb(letters, k) * (letters - k) ** length
               for k in range(letters + 1))


@pytest.mark.parametrize("length", range(1, 7))
def test_critical_cells_of_one_length_have_euler_characteristic_sign(length):
    _, report = build_matching(length + 1, length)
    euler = sum((-1) ** n * len(report.unmatched_nondegenerate(n, length))
                for n in range(1, length + 1))
    assert euler == (-1) ** length
    assert euler == sum((-1) ** n * _surjections(length, n)
                        for n in range(1, length + 1))
