"""Directed Randic index and the certified two-sided bound chain

    2 R(G)  <=  E(G)  <=  2 sqrt(max_degree) R(G),

whose equality cases ``dgspec.classify`` recognises exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classify import classify_lower_equality
from .digraph import Digraph, degree_profile
from .energy import energy_report

# the one default ``tol`` (the oracle's judgements, ``sweep --tol``), and the
# fixed allowance within which a certificate's bound chain holds
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class BoundsCertificate:
    """Randic index, energy, the bound chain with its slacks (it holds within
    ``tolerance``), and whether each bound is attained, decided structurally."""

    randic: float
    energy: float
    lower: float
    upper: float
    lower_slack: float
    upper_slack: float
    lower_equal: bool
    upper_equal: bool
    tolerance: float


def randic_index(G: Digraph) -> float:
    """Half the sum over arcs (v, w) of 1/sqrt(d+(v) * d-(w)).

    Only arcs contribute, and every arc endpoint has the relevant degree
    at least 1, so the sum is always well defined.
    """
    deg = degree_profile(G)
    return 0.5 * math.fsum(
        1.0 / math.sqrt(deg.out_deg[v] * deg.in_deg[w]) for v, w in G.arcs
    )


def bounds_certificate(G: Digraph) -> BoundsCertificate:
    """Evaluate both bounds; each flag is ``classify``'s exact verdict on
    its equality case, so an edgeless graph attains both.
    """
    randic = randic_index(G)
    energy = energy_report(G).total
    max_deg = degree_profile(G).max_deg
    lower = 2.0 * randic
    upper = 2.0 * math.sqrt(max_deg) * randic
    return BoundsCertificate(
        randic=randic,
        energy=energy,
        lower=lower,
        upper=upper,
        lower_slack=energy - lower,
        upper_slack=upper - energy,
        lower_equal=classify_lower_equality(G) is not None,
        # the test classify_upper_equality starts with, without its walk
        upper_equal=max_deg <= 1,
        tolerance=DEFAULT_TOL,
    )
