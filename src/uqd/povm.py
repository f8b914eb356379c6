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
    _check_unit,
    _check_walk_size,
    _mode_walk,
    _Scratch,
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
            object.__setattr__(self, name, _check_unit(name, getattr(self, name)))


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
    n = _check_copies(n)
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
    `amplitudes`, shape (states, 2(n+1)^2): Re <psi|pi_which|psi> per row.

    The operator is real, so complex rows take one real product per part,
    Re <psi|A psi> = <re|A re> + <im|A im>, and A is never cast to complex.
    """
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
    parts = (
        (amplitudes.real, amplitudes.imag)
        if np.iscomplexobj(amplitudes)
        else (amplitudes,)
    )
    return sum(np.sum(part * (part @ op.T), axis=-1) for part in parts)


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
    ca: np.ndarray,
    sa: np.ndarray,
    cb: np.ndarray,
    sb: np.ndarray,
    cos_delta: np.ndarray,
    scratch: _Scratch | None = None,
) -> np.ndarray:
    """|<a|b>|^2 = c_a^2 c_b^2 + s_a^2 s_b^2 + 2 c_a c_b s_a s_b cos(phi_a - phi_b),
    in the "fidelity" buffer of `scratch`; cos_delta has the pairs' shape.

    Every product is taken in the order of that sum, in place, so the result
    is bit-identical to the expression evaluated with temporaries.
    """
    scratch = scratch or _Scratch()
    shape = cos_delta.shape
    cc = np.multiply(ca, cb, out=scratch("fidelity.cc", shape))
    ss = np.multiply(sa, sb, out=scratch("fidelity.ss", shape))
    fidelity = np.multiply(cc, cc, out=scratch("fidelity", shape))
    cc *= 2
    cc *= ss
    cc *= cos_delta
    ss *= ss
    fidelity += ss
    fidelity += cc
    return fidelity


def _symmetric_overlap(
    n: int,
    ca: np.ndarray,
    sa: np.ndarray,
    cb: np.ndarray,
    sb: np.ndarray,
    cos_delta: np.ndarray,
    scratch: _Scratch | None = None,
) -> np.ndarray:
    """(1 + n F)/(n+1): the closed-form weight of n copies of one qubit plus
    one copy of the other in the symmetric subspace, in the buffer of F."""
    overlap = _fidelity(ca, sa, cb, sb, cos_delta, scratch)
    overlap *= n
    overlap += 1.0
    overlap /= n + 1
    return overlap


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
    n = _check_copies(n)
    return _symmetric_overlap(n, *_amplitudes(theta_tail, phi_tail, theta_block, phi_block))


# Half-width of the summation window in standard units of sqrt(n): the
# Binomial(n, p) mass farther than 4.4 sqrt(n) from its mean is below
# 2 exp(-2 * 4.4^2) ~ 3.1e-17 (Hoeffding).
_WINDOW = 4.4


def _tail_split_sums(
    n: int,
    big: np.ndarray,
    small: np.ndarray,
    small_sq: np.ndarray,
    scratch: _Scratch | None = None,
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
    n <= 23 it covers all of 0..n.  Cost: O(sqrt(n)) per row, O(n) per
    `scratch` for the ratio tables.  The three sums are `scratch` buffers,
    each formed in place in the order of the formulas above.
    """
    scratch = scratch or _Scratch()
    shape = big.shape
    term = scratch("sums.term", shape)
    # small^2 <= 1/2, so the mode floor((n+1) small^2) stays within 0..n;
    # the cast truncates, which floors a nonnegative value.
    mode = scratch("sums.mode", shape, np.intp)
    np.copyto(mode, np.multiply(n + 1, small_sq, out=term), casting="unsafe")
    half_width = math.ceil(_WINDOW * math.sqrt(n)) + 1

    # mass, first moment relative to the mode, and cross, on O(rows) vectors
    mass = scratch("sums.mass", shape)
    offset = scratch("sums.offset", shape)
    cross = scratch("sums.cross", shape)
    mass.fill(1.0)
    offset.fill(0.0)
    cross.fill(0.0)
    for j, w, prev, link in _mode_walk(n, big, small, mode, half_width, scratch):
        np.multiply(w, w, out=term)
        mass += term
        term *= j
        offset += term
        np.multiply(link, w, out=term)
        term *= prev
        cross += term

    np.copyto(term, mode)  # exact: mode <= n
    term *= mass
    moment = offset
    moment += term  # sum_k k w_k^2
    scale = np.multiply(n + 1, mass, out=term)
    move = mass
    move += moment
    move /= scale
    stay = np.subtract(scale, moment, out=moment)
    stay /= scale
    cross /= scale
    return stay, move, cross


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
    n = _check_walk_size(n)
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
    n: int,
    params: PovmParams,
    c: np.ndarray,
    s: np.ndarray,
    cos_delta: np.ndarray,
    scratch: _Scratch | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(p1, p2, leak1, leak2) from stacked half-angle amplitudes and
    cos(phi1 - phi2).

    c and s are C-contiguous (2, rows) stacks: row 0 is qubit 1, row 1
    qubit 2.  The fidelity is computed once.  Both leaks come from one
    explicit projection over the flat 2 * rows view, each block qubit with
    the same qubit on the tail, so the relative phase is 0 and the kept
    weight big^2 stay + small^2 move + 2 big small cross is the same in
    either frame.  The four results are `scratch` buffers: a chunk loop
    that passes the same `scratch` gets them rewritten, not reallocated.
    """
    scratch = scratch or _Scratch()
    miss = _fidelity(c[0], s[0], c[1], s[1], cos_delta, scratch)
    np.subtract(1.0, miss, out=miss)
    miss *= n
    miss /= n + 1
    p1 = np.multiply(params.c1, miss, out=scratch("pair.p1", miss.shape))
    p2 = np.multiply(params.c2, miss, out=miss)

    flat_c, flat_s = c.reshape(-1), s.reshape(-1)
    big = np.maximum(flat_c, flat_s, out=scratch("pair.big", flat_c.shape))
    small = np.minimum(flat_c, flat_s, out=scratch("pair.small", flat_c.shape))
    # small^2 lives in the buffer of kept until kept is formed
    small_sq = np.multiply(small, small, out=scratch("pair.kept", flat_c.shape))
    stay, move, cross = _tail_split_sums(n, big, small, small_sq, scratch)
    move *= small_sq
    kept = np.multiply(big, big, out=small_sq)
    kept *= stay
    kept += move
    big *= 2
    big *= small
    big *= cross
    kept += big
    leak = np.subtract(1.0, kept, out=kept).reshape(c.shape)
    leak[0] *= params.c2
    leak[1] *= params.c1
    return p1, p2, leak[0], leak[1]


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
    n = _check_walk_size(n)
    c1, s1, c2, s2, cos_delta = _amplitudes(theta1, phi1, theta2, phi2)
    return _pair_terms(n, params, np.stack((c1, c2)), np.stack((s1, s2)), cos_delta)
