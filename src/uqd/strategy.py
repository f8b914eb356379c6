"""Choosing measurement parameters from the prior.

The measurements chosen here form the two-scale family of `build_povm`:
pi1 = c1 (I - P_even) and pi2 = c2 (I - P_odd), with P_even and P_odd the
even- and odd-block-plus-tail symmetric projectors and the inconclusive
element fixed by completeness.  Every optimum below is an optimum within
that family, not over all unambiguous measurements.

Averaging the success probability over independent uniform program qubits
turns the trade-off between the two scale factors into a one-dimensional
problem along the positivity boundary.  The optimum is interior only when
the prior eta1 lies inside a closed validity window around 1/2; outside it,
one scale factor saturates and the measurement degenerates to the projective
strategy aimed at the likelier preparation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .spectral import constraint_c2
from .symmetric import _check_copies, _check_unit


class Regime(str, Enum):
    """Which strategy the prior selects."""

    VON_NEUMANN_1 = "vn1"
    POVM = "povm"
    VON_NEUMANN_2 = "vn2"


@dataclass(frozen=True)
class DiscriminatorConfig:
    """Problem instance: copy count and prior of the first preparation."""

    n: int
    eta1: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _check_copies(self.n))
        object.__setattr__(self, "eta1", _check_unit("eta1", self.eta1))


@dataclass(frozen=True)
class StrategyDecision:
    """Chosen regime, scale factors, and the resulting average success."""

    n: int
    eta1: float
    regime: Regime
    c1_opt: float
    c2_opt: float
    avg_success: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "eta1": self.eta1,
            "regime": self.regime.value,
            "c1": self.c1_opt,
            "c2": self.c2_opt,
            "avg_success": self.avg_success,
        }


def validity_range(n: int) -> tuple[float, float]:
    """Closed prior window where the interior optimum keeps both scale
    factors in [0, 1]: [n^2 / D, (n+1)^2 / D] with D = n^2 + (n+1)^2."""
    n = _check_copies(n)
    denom = n**2 + (n + 1) ** 2
    return n**2 / denom, (n + 1) ** 2 / denom


def optimal_c(n: int, eta1: float) -> tuple[float, float]:
    """Scale factors maximizing the average success of the two-scale family
    inside the validity window.

    c1 = (n+1)^2/(2n+1) * (1 - n/(n+1) * r) with r = sqrt((1-eta1)/eta1);
    c2 swaps the priors.  The pair saturates the positivity boundary.  The
    bracket is evaluated as 1 + n (1 - r), with 1 - r = (2 eta1 - 1) /
    (eta1 (1 + r)), so nothing cancels and the error stays a few 1e-16 at
    any n inside the window (the expanded form loses about n ulps).
    Values are clamped to [0, 1] against roundoff at the window edges.
    """
    n = _check_copies(n)
    low, high = validity_range(n)
    if not low <= eta1 <= high:
        raise ValueError(
            f"eta1={eta1} outside the validity window [{low}, {high}] for n={n}"
        )
    front = (n + 1) / (2 * n + 1)
    eta2 = 1.0 - eta1
    # eta1 - eta2, exact inside the window, where 2 * eta2 - 1 could round
    excess = 2.0 * eta1 - 1.0
    c1 = front * (1.0 + n * excess / (eta1 * (1.0 + math.sqrt(eta2 / eta1))))
    c2 = front * (1.0 - n * excess / (eta2 * (1.0 + math.sqrt(eta1 / eta2))))
    clamp = lambda c: min(1.0, max(0.0, c))
    return clamp(c1), clamp(c2)


def avg_success_povm(n: int, eta1: float) -> float:
    """Average success of the best interior measurement of the two-scale
    family, n/(4n+2) * (n + 1 - 2n sqrt(eta1 (1 - eta1))).

    The bracket is evaluated as 1 + n (2 eta1 - 1)^2 / (1 + 2 sqrt(eta1 (1 -
    eta1))), which cancels nothing at any n.
    """
    n = _check_copies(n)
    eta1 = _check_unit("eta1", eta1)
    excess = 2.0 * eta1 - 1.0
    root = math.sqrt(eta1 * (1.0 - eta1))
    return n / (4 * n + 2) * (1.0 + n * excess * excess / (1.0 + 2.0 * root))


def avg_success_projective(n: int, eta1: float, which: int) -> float:
    """Average success of the projective strategy aimed at preparation
    `which`: the aimed-at prior times n/(2(n+1))."""
    n = _check_copies(n)
    eta1 = _check_unit("eta1", eta1)
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    prior = eta1 if which == 1 else 1.0 - eta1
    return prior * n / (2 * (n + 1))


def avg_success_expression(n: int, eta1: float, c1: float) -> float:
    """Average success along the positivity boundary as a function of c1
    alone, with c2 = constraint_c2(c1)."""
    n = _check_copies(n)
    eta1 = _check_unit("eta1", eta1)
    c2 = constraint_c2(c1, n)
    return (eta1 * c1 + (1.0 - eta1) * c2) * n / (2 * (n + 1))


def decide(config: DiscriminatorConfig) -> StrategyDecision:
    """Pick the best two-scale strategy for the prior: the interior
    measurement inside the validity window (boundaries included), else the
    projective strategy aimed at the likelier preparation."""
    n, eta1 = config.n, config.eta1
    low, high = validity_range(n)
    if eta1 < low:
        return StrategyDecision(
            n=n,
            eta1=eta1,
            regime=Regime.VON_NEUMANN_2,
            c1_opt=0.0,
            c2_opt=1.0,
            avg_success=avg_success_projective(n, eta1, 2),
        )
    if eta1 > high:
        return StrategyDecision(
            n=n,
            eta1=eta1,
            regime=Regime.VON_NEUMANN_1,
            c1_opt=1.0,
            c2_opt=0.0,
            avg_success=avg_success_projective(n, eta1, 1),
        )
    c1, c2 = optimal_c(n, eta1)
    return StrategyDecision(
        n=n,
        eta1=eta1,
        regime=Regime.POVM,
        c1_opt=c1,
        c2_opt=c2,
        avg_success=avg_success_povm(n, eta1),
    )
