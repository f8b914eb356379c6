"""The discrimination measurement and its success probabilities.

Each conclusive element scales the complement of one block-plus-tail
symmetric projector.  When the tail repeats the even-block qubit the whole
even-plus-tail group is n+1 copies of one state, hence symmetric, so the
complement annihilates it: a click can only come from the other preparation
and the measurement never misidentifies.  The inconclusive element is fixed
by completeness.

The dense operators serve small-n cross-checks only; the spectral analysis
builds its sector blocks from closed forms.  Per-pair quantities never need
them either: n copies of |b> plus one |a> have weight (1 + n |<a|b>|^2)/(n+1)
in the symmetric subspace, so the success probabilities cost O(1) per qubit
pair, and the leak into the wrong element is an explicit O(n) projection
through the two-nonzeros-per-row factor of `tail_split_vectors`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symmetric import (
    Block,
    BlochQubit,
    ReducedOperator,
    ReducedState,
    _check_copies,
    build_input_state,
    build_symmetric_projector,
    dicke_magnitudes_batch,
    reduced_dim,
)


@dataclass(frozen=True)
class PovmParams:
    """Scale factors of the two conclusive elements."""

    c1: float
    c2: float

    def __post_init__(self) -> None:
        for name in ("c1", "c2"):
            value = float(getattr(self, name))
            if not 0.0 <= value <= 1.0 or math.isnan(value):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class PovmTriple:
    """The two conclusive elements and the inconclusive remainder."""

    n: int
    params: PovmParams
    pi1: ReducedOperator
    pi2: ReducedOperator
    pi0: ReducedOperator


def build_povm(n: int, params: PovmParams) -> PovmTriple:
    """Assemble the three measurement operators in the reduced basis.

    pi1 + pi2 + pi0 equals the identity by construction; positivity of pi0
    depends on (c1, c2) and is the subject of the spectral module.
    """
    _check_copies(n)
    p_even = build_symmetric_projector(n, Block.EVEN_TAIL).entries
    p_odd = build_symmetric_projector(n, Block.ODD_TAIL).entries
    eye = np.eye(reduced_dim(n), dtype=complex)
    pi1 = params.c1 * (eye - p_even)
    pi2 = params.c2 * (eye - p_odd)
    pi0 = eye - pi1 - pi2
    return PovmTriple(
        n=n,
        params=params,
        pi1=ReducedOperator(n, pi1),
        pi2=ReducedOperator(n, pi2),
        pi0=ReducedOperator(n, pi0),
    )


def _expectation(state: ReducedState, op: ReducedOperator) -> float:
    return float(np.real(np.vdot(state.amplitudes, op.entries @ state.amplitudes)))


def success_probability(state: ReducedState, triple: PovmTriple, which: int) -> float:
    """Probability that the conclusive element `which` fires on `state`."""
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    if state.n != triple.n:
        raise ValueError(
            f"state has n={state.n} but the measurement has n={triple.n}"
        )
    return _expectation(state, triple.pi1 if which == 1 else triple.pi2)


def _half_angles(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return np.cos(theta / 2), np.sin(theta / 2)


def _fidelity(
    theta_a: np.ndarray, phi_a: np.ndarray, theta_b: np.ndarray, phi_b: np.ndarray
) -> np.ndarray:
    """|<a|b>|^2 = c_a^2 c_b^2 + s_a^2 s_b^2 + 2 c_a c_b s_a s_b cos(phi_a - phi_b)."""
    ca, sa = _half_angles(theta_a)
    cb, sb = _half_angles(theta_b)
    cos_delta = np.cos(np.asarray(phi_a, dtype=float) - phi_b)
    return (ca * cb) ** 2 + (sa * sb) ** 2 + 2 * ca * cb * sa * sb * cos_delta


def symmetric_overlap_batch(
    n: int,
    theta_tail: np.ndarray,
    phi_tail: np.ndarray,
    theta_block: np.ndarray,
    phi_block: np.ndarray,
) -> np.ndarray:
    """Overlap of a register with the projected block-plus-tail subspace.

    The projected block is filled with n copies of (theta_block, phi_block)
    and the tail carries (theta_tail, phi_tail); the spectator block drops
    out because it is normalized.  n copies of |b> plus one |a> have weight
    (1 + n F)/(n+1) in the symmetric subspace, F = |<a|b>|^2 (Bergou &
    Hillery), so this costs O(1) per pair.
    """
    _check_copies(n)
    fid = _fidelity(theta_tail, phi_tail, theta_block, phi_block)
    return (1.0 + n * fid) / (n + 1)


def projected_overlap_batch(
    n: int,
    theta_block: np.ndarray,
    phi_block: np.ndarray,
    theta_tail: np.ndarray,
    phi_tail: np.ndarray,
) -> np.ndarray:
    """The same overlap as `symmetric_overlap_batch`, by explicit projection.

    Computes ||V (a^{xn} x psi)||^2 with V the rank-(n+2) factor of
    `tail_split_vectors`: row k has sqrt((n+1-k)/(n+1)) on |e_k>|0> and
    sqrt(k/(n+1)) on |e_{k-1}>|1>.  With w_k the Dicke magnitudes of the
    block qubit a and Delta = phi_tail - phi_block the global phases drop out,
    leaving O(n) real arithmetic per pair:

        sum_k (n+1-k) w_k^2 c^2 / (n+1) + sum_k (k+1) w_k^2 s^2 / (n+1)
      + 2 c s cos(Delta) sum_{k>=1} sqrt(k (n+1-k)) w_k w_{k-1} / (n+1)

    where (c, s) are the tail's half-angle amplitudes.  It shares no formula
    with the closed form, which makes it the independent route the leak
    estimate relies on.
    """
    _check_copies(n)
    w = dicke_magnitudes_batch(n, theta_block)
    ct, st = _half_angles(theta_tail)
    cos_delta = np.cos(np.asarray(phi_tail, dtype=float) - phi_block)
    k = np.arange(n + 1)
    w2 = w * w
    stay = w2 @ ((n + 1 - k) / (n + 1))
    move = w2 @ ((k + 1) / (n + 1))
    kk = k[1:]
    cross = (w[:, 1:] * w[:, :-1]) @ (np.sqrt(kk * (n + 1 - kk)) / (n + 1))
    return ct**2 * stay + st**2 * move + 2 * ct * st * cos_delta * cross


def closed_form_expectation(
    psi1: BlochQubit, psi2: BlochQubit, n: int, which: int
) -> float:
    """Summed-out overlap limiting the success probability of input `which`.

    Equals <Psi|P x I|Psi> computed by the matrix route, but needs no
    reduced-basis operator: p_which = c_which * (1 - this value).
    """
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    tail, block = (psi1, psi2) if which == 1 else (psi2, psi1)
    return float(
        symmetric_overlap_batch(
            n, [tail.theta], [tail.phi], [block.theta], [block.phi]
        )[0]
    )


def batch_success_probabilities(
    n: int,
    params: PovmParams,
    theta1: np.ndarray,
    phi1: np.ndarray,
    theta2: np.ndarray,
    phi2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Success probabilities and cross-element leakage for qubit-pair batches.

    Returns (p1, p2, leak1, leak2).  The successes are closed form, O(1) per
    pair: p_i = c_i n (1 - F)/(n+1) with F = |<psi1|psi2>|^2.  leak_i is the
    probability that the wrong conclusive element fires on input i, whose
    projected block and tail hold the same qubit; it is computed by
    `projected_overlap_batch` at O(n) per pair and should vanish to float
    precision.
    """
    _check_copies(n)
    miss = n * (1.0 - _fidelity(theta1, phi1, theta2, phi2)) / (n + 1)
    p1 = params.c1 * miss
    p2 = params.c2 * miss
    leak1 = params.c2 * (1.0 - projected_overlap_batch(n, theta1, phi1, theta1, phi1))
    leak2 = params.c1 * (1.0 - projected_overlap_batch(n, theta2, phi2, theta2, phi2))
    return p1, p2, leak1, leak2


def no_error_check(triple: PovmTriple, psi1: BlochQubit, psi2: BlochQubit) -> float:
    """Largest probability of a misidentifying click over the two inputs."""
    state1 = build_input_state(psi1, psi2, triple.n, 1)
    state2 = build_input_state(psi1, psi2, triple.n, 2)
    return max(
        abs(_expectation(state1, triple.pi2)),
        abs(_expectation(state2, triple.pi1)),
    )


def total_success(p1: float, p2: float, eta1: float) -> float:
    """Prior-weighted success probability eta1*p1 + (1 - eta1)*p2."""
    if not 0.0 <= eta1 <= 1.0 or math.isnan(eta1):
        raise ValueError(f"eta1 must lie in [0, 1], got {eta1!r}")
    return eta1 * p1 + (1.0 - eta1) * p2
