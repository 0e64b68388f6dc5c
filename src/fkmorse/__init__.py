"""Discrete Morse theory on the free simplicial monoid model of the loop
space of the 2-sphere.

The package enumerates the cells of Milnor's construction on the minimal
circle, builds a discrete vector field from a steepness pairing rule,
validates it (regularity, injectivity, acyclicity), stabilizes chains under
the induced flow, assembles Morse boundary matrices between critical cells,
and computes integer homology of length-truncated slices exactly.

The package root re-exports the names of the README's Library example and
the error classes; everything else is imported from its module.
"""

from .chains import Chain, boundary
from .errors import SelfCheckError, StabilizationError, TruncationError
from .flow import FlowContext, sigma_cell, y_power
from .homology import compute_homology, stability_scan
from .pairing import Scope, SteepnessRule, build_matching, validate_matching
from .simplicial import Simplex, face, is_degenerate

__version__ = "0.1.0"

__all__ = [
    "Chain", "FlowContext", "Scope", "SelfCheckError", "Simplex",
    "StabilizationError", "SteepnessRule", "TruncationError", "boundary",
    "build_matching", "compute_homology", "face", "is_degenerate",
    "sigma_cell", "stability_scan", "validate_matching", "y_power",
]
