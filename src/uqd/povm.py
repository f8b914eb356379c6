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
pair.  The leak into the wrong element is an explicit projection through the
two-nonzeros-per-row factor of `tail_split_vectors`.  Its Dicke weights come
from `symmetric._mode_walk` over a window of about 8.8 sqrt(n) terms around
the mode, so it costs O(sqrt(n)) per pair and drops a binomial mass below
3e-17.  One kernel, `_tail_split_sums`, sums them in the frame of the
block qubit's larger amplitude.  The mismatched-qubit route maps the tail's
amplitudes into that frame; the same-qubit leak, whose block and tail hold
one qubit, needs no map.  The success probabilities and both leaks of a
qubit pair come from `_pair_terms`, which takes the two qubits' half-angle
amplitudes as stacked (2, rows) arrays; the public batch functions take
Bloch angles and convert them once.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .symmetric import (
    Block,
    BlochQubit,
    ReducedOperator,
    ReducedState,
    _check_copies,
    _check_walk_size,
    _mode_walk,
    build_input_state,
    build_symmetric_projector,
    pair_angles,
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
    eye = np.eye(reduced_dim(n))
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


def success_probabilities(
    amplitudes: np.ndarray, triple: PovmTriple, which: int
) -> np.ndarray:
    """`success_probability` for reduced states held as the rows of
    `amplitudes`, shape (states, 2(n+1)^2): Re <psi|pi_which|psi> per row."""
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    amplitudes = np.asarray(amplitudes)
    dim = reduced_dim(triple.n)
    if amplitudes.ndim != 2 or amplitudes.shape[1] != dim:
        raise ValueError(
            f"states must have shape (rows, {dim}) for the measurement's "
            f"n={triple.n}, got {amplitudes.shape}"
        )
    op = (triple.pi1 if which == 1 else triple.pi2).entries
    return np.real(np.sum(amplitudes.conj() * (amplitudes @ op.T), axis=-1))


def success_probability(state: ReducedState, triple: PovmTriple, which: int) -> float:
    """Probability that the conclusive element `which` fires on `state`."""
    return float(success_probabilities(state.amplitudes[None, :], triple, which)[0])


def _amplitudes(
    theta_a: np.ndarray, phi_a: np.ndarray, theta_b: np.ndarray, phi_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(c_a, s_a, c_b, s_b, cos(phi_a - phi_b)) from Bloch angles, where
    (c, s) = (|cos(theta/2)|, |sin(theta/2)|) are the half-angle amplitudes.

    Outside [0, pi] one of cos(theta/2), sin(theta/2) is negative; up to a
    global phase that is the same qubit with phi shifted by pi, so the sign
    moves into cos(phi_a - phi_b) and the amplitudes stay nonnegative.
    """
    theta_a = np.atleast_1d(np.asarray(theta_a, dtype=float))
    theta_b = np.atleast_1d(np.asarray(theta_b, dtype=float))
    phi_a = np.asarray(phi_a, dtype=float)
    phi_b = np.asarray(phi_b, dtype=float)
    if not (np.isfinite(theta_a).all() and np.isfinite(theta_b).all()):
        raise ValueError("theta must be finite")
    if not (np.isfinite(phi_a).all() and np.isfinite(phi_b).all()):
        raise ValueError("phi must be finite")
    ca, sa = np.cos(theta_a / 2), np.sin(theta_a / 2)
    cb, sb = np.cos(theta_b / 2), np.sin(theta_b / 2)
    cos_delta = np.cos(phi_a - phi_b) * np.sign(ca * sa * cb * sb)
    return np.abs(ca), np.abs(sa), np.abs(cb), np.abs(sb), cos_delta


def _fidelity(
    ca: np.ndarray, sa: np.ndarray, cb: np.ndarray, sb: np.ndarray, cos_delta
) -> np.ndarray:
    """|<a|b>|^2 = c_a^2 c_b^2 + s_a^2 s_b^2 + 2 c_a c_b s_a s_b cos(phi_a - phi_b)."""
    cc = ca * cb
    ss = sa * sb
    return cc * cc + ss * ss + 2 * cc * ss * cos_delta


def _symmetric_overlap(
    n: int, ca: np.ndarray, sa: np.ndarray, cb: np.ndarray, sb: np.ndarray, cos_delta
) -> np.ndarray:
    """(1 + n F)/(n+1): the closed-form weight of n copies of one qubit plus
    one copy of the other in the symmetric subspace."""
    return (1.0 + n * _fidelity(ca, sa, cb, sb, cos_delta)) / (n + 1)


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
    return _symmetric_overlap(n, *_amplitudes(theta_tail, phi_tail, theta_block, phi_block))


# Half-width of the summation window in standard units of sqrt(n): the
# Binomial(n, p) mass farther than 4.4 sqrt(n) from its mean is below
# 2 exp(-2 * 4.4^2) ~ 3.1e-17 (Hoeffding).
_WINDOW = 4.4


def _tail_split_sums(
    n: int, big: np.ndarray, small: np.ndarray, small_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(stay, move, cross) of a block qubit under the tail split, in the frame
    of its larger amplitude: big = max(c, s), small = min(c, s), and small_sq
    = small * small.

    With w_k = sqrt(C(n,k)) big^(n-k) small^k the Dicke magnitudes of n
    copies of (big, small),

        stay  = sum_k (n+1-k) w_k^2 / (n+1)
        move  = sum_k (k+1) w_k^2 / (n+1)
        cross = sum_{k>=1} sqrt(k (n+1-k)) w_k w_{k-1} / (n+1)

    each divided by sum_k w_k^2, from `_mode_walk` with no (rows, n+1)
    table.  A qubit with s > c is the mirror k -> n-k of its frame, which
    swaps stay and move and leaves cross alone.  A caller whose tail holds
    another qubit swaps that tail's amplitudes instead of the sums; the
    same-qubit leak needs no map.

    The window holds every k within 4.4 sqrt(n) of the row's mean n small^2
    (one more step on each side covers the mode's offset from the mean), so
    by Hoeffding the dropped mass is below 2 exp(-2 * 4.4^2) ~ 3e-17.  For
    n <= 23 it covers all of 0..n.  Cost: O(sqrt(n)) per row, O(n) per call
    for the ratio tables.
    """
    # small^2 <= 1/2, so the mode floor((n+1) small^2) stays within 0..n;
    # the cast truncates, which floors a nonnegative value.
    mode = ((n + 1) * small_sq).astype(np.intp)
    half_width = math.ceil(_WINDOW * math.sqrt(n)) + 1

    # mass, first moment relative to the mode, and cross, on O(rows) vectors
    mass = np.ones_like(big)
    offset = np.zeros_like(big)
    cross = np.zeros_like(big)
    for j, w, prev, link in _mode_walk(n, big, small, mode, half_width):
        sq = w * w
        mass += sq
        offset += j * sq
        cross += link * w * prev

    moment = mode * mass + offset  # sum_k k w_k^2
    scale = (n + 1) * mass
    return (scale - moment) / scale, (mass + moment) / scale, cross / scale


def _projected_overlap(
    n: int, cb: np.ndarray, sb: np.ndarray, ct: np.ndarray, st: np.ndarray, cos_delta
) -> np.ndarray:
    small = np.minimum(cb, sb)
    stay, move, cross = _tail_split_sums(n, np.maximum(cb, sb), small, small * small)
    # A block with sb > cb is the mirror of its frame: stay and move trade
    # places, which is the same as trading the tail's c and s.
    swap = sb > cb
    c, s = np.where(swap, st, ct), np.where(swap, ct, st)
    return c * c * stay + s * s * move + 2 * ct * st * cos_delta * cross


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
    leaving real arithmetic per pair:

        c^2 stay + s^2 move + 2 c s cos(Delta) cross

    where (c, s) are the tail's half-angle amplitudes and the three sums are
    those of `_tail_split_sums`, O(sqrt(n)) per pair within a dropped mass
    below 3e-17.  It shares no formula with the closed form, which makes it
    the independent route the leak estimate relies on.  n is capped at
    WALK_N_MAX.
    """
    _check_walk_size(n)
    ct, st, cb, sb, cos_delta = _amplitudes(theta_tail, phi_tail, theta_block, phi_block)
    return _projected_overlap(n, cb, sb, ct, st, cos_delta)


def closed_form_expectations(
    psi1s: Sequence[BlochQubit], psi2s: Sequence[BlochQubit], n: int, which: int
) -> np.ndarray:
    """`closed_form_expectation`, one value per pair (psi1s[i], psi2s[i])."""
    theta1, phi1, theta2, phi2 = pair_angles(psi1s, psi2s, which)
    # the tail repeats input `which`; the projected block holds the other qubit
    if which == 1:
        return symmetric_overlap_batch(n, theta1, phi1, theta2, phi2)
    return symmetric_overlap_batch(n, theta2, phi2, theta1, phi1)


def closed_form_expectation(
    psi1: BlochQubit, psi2: BlochQubit, n: int, which: int
) -> float:
    """Summed-out overlap limiting the success probability of input `which`.

    Equals <Psi|P x I|Psi> computed by the matrix route, but needs no
    reduced-basis operator: p_which = c_which * (1 - this value).
    """
    return float(closed_form_expectations([psi1], [psi2], n, which)[0])


def _pair_terms(
    n: int, params: PovmParams, c: np.ndarray, s: np.ndarray, cos_delta
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(p1, p2, leak1, leak2) from stacked half-angle amplitudes and
    cos(phi1 - phi2).

    c and s are C-contiguous (2, rows) stacks: row 0 is qubit 1, row 1
    qubit 2.  The fidelity is computed once.  Both leaks come from one
    explicit projection over the flat 2 * rows view, each block qubit with
    the same qubit on the tail, so the relative phase is 0 and the kept
    weight big^2 stay + small^2 move + 2 big small cross is the same in
    either frame.
    """
    miss = n * (1.0 - _fidelity(c[0], s[0], c[1], s[1], cos_delta)) / (n + 1)
    flat_c, flat_s = c.reshape(-1), s.reshape(-1)
    big, small = np.maximum(flat_c, flat_s), np.minimum(flat_c, flat_s)
    small_sq = small * small
    stay, move, cross = _tail_split_sums(n, big, small, small_sq)
    kept = (big * big * stay + small_sq * move + 2 * big * small * cross).reshape(c.shape)
    leak1 = params.c2 * (1.0 - kept[0])
    leak2 = params.c1 * (1.0 - kept[1])
    return params.c1 * miss, params.c2 * miss, leak1, leak2


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
    projected block and tail hold the same qubit; it is computed by the
    explicit projection of `projected_overlap_batch` at O(sqrt(n)) per pair
    and should vanish to float precision.  n is capped at WALK_N_MAX.
    """
    _check_walk_size(n)
    c1, s1, c2, s2, cos_delta = _amplitudes(theta1, phi1, theta2, phi2)
    return _pair_terms(n, params, np.stack((c1, c2)), np.stack((s1, s2)), cos_delta)


def no_error_check(triple: PovmTriple, psi1: BlochQubit, psi2: BlochQubit) -> float:
    """Largest probability of a misidentifying click over the two inputs."""
    state1 = build_input_state(psi1, psi2, triple.n, 1)
    state2 = build_input_state(psi1, psi2, triple.n, 2)
    return max(
        abs(success_probability(state1, triple, 2)),
        abs(success_probability(state2, triple, 1)),
    )


def total_success(p1: float, p2: float, eta1: float) -> float:
    """Prior-weighted success probability eta1*p1 + (1 - eta1)*p2."""
    if not 0.0 <= eta1 <= 1.0 or math.isnan(eta1):
        raise ValueError(f"eta1 must lie in [0, 1], got {eta1!r}")
    return eta1 * p1 + (1.0 - eta1) * p2
