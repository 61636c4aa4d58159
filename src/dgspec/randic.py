"""Directed Randic index and the certified two-sided bound chain

    2 R(G)  <=  E(G)  <=  2 sqrt(max_degree) R(G).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .digraph import Digraph, degree_profile
from .energy import energy_report

# the tolerance every verdict defaults to: the bound-chain equality flags,
# the oracle's property judgements and the CLI's --tol
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class BoundsCertificate:
    """Randic index, energy, and the evaluated bound chain with slacks."""

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


def bounds_certificate(G: Digraph, tol: float = DEFAULT_TOL) -> BoundsCertificate:
    """Evaluate both bounds and flag equality cases within ``tol``.

    An edgeless graph has energy = Randic = 0 and both flags true (the
    structural equality characterizations include it).
    """
    randic = randic_index(G)
    energy = energy_report(G).total
    lower = 2.0 * randic
    upper = 2.0 * math.sqrt(degree_profile(G).max_deg) * randic
    lower_slack = energy - lower
    upper_slack = upper - energy
    return BoundsCertificate(
        randic=randic,
        energy=energy,
        lower=lower,
        upper=upper,
        lower_slack=lower_slack,
        upper_slack=upper_slack,
        lower_equal=abs(lower_slack) <= tol,
        upper_equal=abs(upper_slack) <= tol,
        tolerance=tol,
    )
