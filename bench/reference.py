"""Closed forms the benchmark checks `uqd` against.

Nothing here imports `uqd`: every expected value is recomputed from the
formulas of the paper and of Bergou & Hillery, PRL 94, 160501 (2005), so a
fault in the library cannot leak into its own reference.
"""

from __future__ import annotations

import math

import numpy as np


def validity_window(n: int) -> tuple[float, float]:
    """Priors [n^2/D, (n+1)^2/D], D = n^2 + (n+1)^2, where the POVM is optimal."""
    d = n**2 + (n + 1) ** 2
    return n**2 / d, (n + 1) ** 2 / d


def regime(n: int, eta1: float) -> str:
    """'vn2' below the window, 'vn1' above it, 'povm' inside (edges included)."""
    low, high = validity_window(n)
    if eta1 < low:
        return "vn2"
    if eta1 > high:
        return "vn1"
    return "povm"


def optimal_scales(n: int, eta1: float) -> tuple[float, float]:
    """(c1, c2) of the optimal measurement for prior eta1.

    Inside the window the paper's optimal scale
    c1 = (n+1)^2/(2n+1) (1 - n/(n+1) sqrt(eta2/eta1)), c2 with the priors
    swapped; outside it the von Neumann choice (1, 0) or (0, 1).
    """
    kind = regime(n, eta1)
    if kind == "vn1":
        return 1.0, 0.0
    if kind == "vn2":
        return 0.0, 1.0
    front = (n + 1) ** 2 / (2 * n + 1)
    ratio = n / (n + 1)
    c1 = front * (1.0 - ratio * math.sqrt((1.0 - eta1) / eta1))
    c2 = front * (1.0 - ratio * math.sqrt(eta1 / (1.0 - eta1)))
    return min(1.0, max(0.0, c1)), min(1.0, max(0.0, c2))


def average_success(n: int, eta1: float, c1: float, c2: float) -> float:
    """Success averaged over uniform qubit pairs: (eta1 c1 + eta2 c2) n/(2(n+1))."""
    return (eta1 * c1 + (1.0 - eta1) * c2) * n / (2 * (n + 1))


def povm_success(n: int, eta1: float) -> float:
    """Average success of the optimal POVM: n/(4n+2) (n+1 - 2n sqrt(eta1 eta2))."""
    return n / (4 * n + 2) * (n + 1 - 2 * n * math.sqrt(eta1 * (1.0 - eta1)))


def projective_success(n: int, eta1: float, which: int) -> float:
    """Average success of the von Neumann measurement aimed at `which`."""
    prior = eta1 if which == 1 else 1.0 - eta1
    return prior * n / (2 * (n + 1))


def fidelity(theta1, phi1, theta2, phi2):
    """|<psi1|psi2>|^2 of two Bloch-sphere qubits (works on arrays)."""
    return 0.5 * (
        1.0
        + np.cos(theta1) * np.cos(theta2)
        + np.sin(theta1) * np.sin(theta2) * np.cos(phi1 - phi2)
    )


def pair_success(n: int, c: float, fid):
    """Success of one conclusive element on a fixed pair: c n (1 - F)/(n+1).

    n copies of one qubit plus a data copy of the other have weight
    (1 + n F)/(n+1) in the symmetric subspace (Bergou & Hillery), and the
    element is c times the complement of that projector.
    """
    return c * n * (1.0 - fid) / (n + 1)


def least_eigenvalue(n: int, c1: float, c2: float) -> float:
    """lambda_minus = 1 - (c1+c2)/2 - sqrt(c1^2/4 + c2^2/4 + (n^2-2n-1) c1 c2 / (2(n+1)^2))."""
    radicand = c1**2 / 4 + c2**2 / 4 + (n**2 - 2 * n - 1) * c1 * c2 / (2 * (n + 1) ** 2)
    return 1.0 - (c1 + c2) / 2 - math.sqrt(max(radicand, 0.0))


def expected_block_sizes(n: int) -> list[int]:
    """Block sizes {1, 1, 3, 3, ..., 2n+1, 2n+1} of the inconclusive element."""
    return sorted([2 * l + 1 for l in range(n + 1)] * 2)


def binomial_deviation_ok(count: int, trials: int, p: float, z: float) -> bool:
    """|count - trials p| within z binomial standard deviations, plus one
    count for the discreteness of the distribution."""
    sigma = math.sqrt(trials * p * (1.0 - p))
    return abs(count - trials * p) <= z * sigma + 1.0
