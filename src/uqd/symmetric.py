"""Dicke combinatorics, the reduced register basis, its states and projectors.

A register holds 2n+1 qubits: n copies of a first program qubit on the odd
positions, n copies of a second program qubit on the even positions, and one
data qubit at the tail.  Whatever the two program qubits are, such a register
only ever occupies the span of

    |e_l>_O |e_m>_E |t>_T,    l, m = 0..n,  t = 0, 1,

where |e_k> is the k-excitation Dicke state of the n odd (O) or n even (E)
program positions and |t> is the tail qubit.  This module fixes the flat
ordering of that 2(n+1)^2-dimensional basis and builds the state vectors and
symmetric-subspace projectors everything downstream relies on.

Every Dicke weight comes from one walk outward from the binomial mode,
`_mode_walk`, over a whole row or over the leak kernel's window.

Flat index convention: (l, m, t) -> l*2*(n+1) + m*2 + t, so each even label
keeps its two tail settings adjacent.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

TWO_PI = 2.0 * math.pi


def _check_int(name: str, value: int, minimum: int) -> int:
    """`value` as a Python int, refused if it is a bool, not an integer or
    below `minimum`.  A numpy integer comes back as a Python int, so closed
    forms such as n**2 cannot wrap in a fixed-width type."""
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integral or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return operator.index(value)


def _check_unit(name: str, value: float) -> float:
    """`value` as a float, refused unless it lies in [0, 1] (NaN fails the
    comparison too)."""
    x = float(value)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return x


def _check_copies(n: int) -> int:
    return _check_int("copy count", n, 1)


# `_mode_walk` tabulates its step ratios over all of 0..n in four n-length
# tables, 80 MB each at n = 10^7, where `uqd montecarlo --n 10000000
# --samples 1000` peaks at 418 MB RSS and takes 3.3 s on 2 cores.  Callers
# refuse larger sizes with `_check_walk_size` before anything is allocated.
WALK_N_MAX = 10**7


def _check_walk_size(n: int) -> int:
    n = _check_copies(n)
    if n > WALK_N_MAX:
        raise ValueError(f"the Dicke-weight walk is capped at n <= {WALK_N_MAX}, got {n}")
    return n


@dataclass(frozen=True)
class BlochQubit:
    """Pure qubit cos(theta/2)|0> + sin(theta/2) e^{i phi} |1>.

    theta must lie in [0, pi]; phi must be finite and is stored reduced
    modulo 2 pi.
    """

    theta: float
    phi: float

    def __post_init__(self) -> None:
        theta = float(self.theta)
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta!r}")
        phi = float(self.phi)
        if not math.isfinite(phi):
            raise ValueError(f"phi must be finite, got {self.phi!r}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi % TWO_PI)

    def amplitudes(self) -> np.ndarray:
        """Two-component state vector (coefficients of |0> and |1>)."""
        return np.array(
            [
                math.cos(self.theta / 2),
                math.sin(self.theta / 2) * np.exp(1j * self.phi),
            ],
            dtype=complex,
        )


def reduced_dim(n: int) -> int:
    """Dimension 2(n+1)^2 of the reduced register basis."""
    n = _check_copies(n)
    return 2 * (n + 1) ** 2


@dataclass(frozen=True)
class ReducedIndex:
    """Label (l, m, t) of one reduced basis vector |e_l>_O |e_m>_E |t>_T."""

    l: int
    m: int
    t: int

    def to_flat(self, n: int) -> int:
        _check_copies(n)
        if not (0 <= self.l <= n and 0 <= self.m <= n and self.t in (0, 1)):
            raise ValueError(f"{self} out of range for n={n}")
        return self.l * 2 * (n + 1) + self.m * 2 + self.t

    @classmethod
    def from_flat(cls, flat: int, n: int) -> "ReducedIndex":
        if not 0 <= flat < reduced_dim(n):
            raise ValueError(f"flat index {flat} out of range for n={n}")
        l, rest = divmod(flat, 2 * (n + 1))
        m, t = divmod(rest, 2)
        return cls(l, m, t)


class _Scratch:
    """Flat buffers kept by name, so a loop over chunks allocates its arrays
    in the first (largest) chunk and none after it.

    `scratch(name, shape)` is a C-contiguous view of the first prod(shape)
    entries of the buffer `name`, made only when it is missing or too
    small.  A view is valid until the next request for its name, so each
    array a kernel holds at once has a name of its own.  Buffers are carved
    from one arena of `capacity` bytes while they fit, and allocated on
    their own after that.  A loop whose arena holds all its buffers makes
    one large allocation per call, which glibc's malloc keeps for the next
    call; many separate ones it would trim and fault in again every call.
    `keep` holds what is built once per call, such as the walk's tables.
    """

    def __init__(self, capacity: int = 0) -> None:
        self._arena = np.empty(capacity, np.uint8)
        self._used = 0
        self._kept: dict = {}

    def __call__(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        buffer = self._kept.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._kept[name] = self._carve(size, np.dtype(dtype))
        return buffer[:size].reshape(shape)

    def _carve(self, size: int, dtype: np.dtype) -> np.ndarray:
        start = -(-self._used // 64) * 64  # cache-line aligned
        stop = start + size * dtype.itemsize
        if stop > self._arena.size:
            return np.empty(size, dtype)
        self._used = stop
        return self._arena[start:stop].view(dtype)

    def keep(self, key: tuple, build):
        if key not in self._kept:
            self._kept[key] = build()
        return self._kept[key]


# bytes per row of `_mode_walk`'s step buffers: four float64 and one bool
_WALK_ROW_BYTES = 4 * 8 + 1


def _walk_tables(n: int, pad: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The walk's up and down step ratios and its links, at index k + pad."""
    k = np.arange(1, n + 1)
    up = np.zeros(n + 1 + 2 * pad)  # w_k / w_{k-1} / x at k + pad
    up[pad + 1 : pad + n + 1] = np.sqrt((n - k + 1) / k)
    link = np.zeros_like(up)
    link[pad + 1 : pad + n + 1] = np.sqrt(k * (n + 1 - k))
    down = np.divide(1.0, up, out=np.zeros_like(up), where=up > 0)
    return up, down, link


def _mode_walk(
    n: int,
    big: np.ndarray,
    small: np.ndarray,
    mode: np.ndarray,
    half_width: int,
    scratch: _Scratch | None = None,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Walk the Dicke weights w_k = sqrt(C(n,k)) big^(n-k) small^k of n
    copies of the qubits (big, small) outward from their modes.

    big >= small >= 0 are the larger and smaller half-angle amplitudes, so
    x = small/big <= 1, and `mode` = floor((n+1) small^2) lies in 0..n.
    Each row starts at its mode with w = 1 and steps by the ratio

        w_k / w_{k-1} = sqrt((n-k+1)/k) x,

    up to `half_width` steps up, then as many down.  No value overflows;
    the common factor cancels once the caller divides by sum_k w_k^2.  A
    step past either end of 0..n reads a zero ratio, and w stays 0 there.

    Yields (j, w, prev, link) per step, each O(rows): w at k = mode + j,
    prev the weight one step nearer the mode, and link = sqrt(k (n+1-k))
    for the upper index k of that pair.  They are `scratch` buffers,
    rewritten by the next step, and the O(n) tables are built once per
    `scratch`, so a chunk loop that passes one allocates nothing after its
    first chunk.
    """
    up_steps = min(half_width, n - int(mode.min(initial=n)))
    down_steps = min(half_width, int(mode.max(initial=0)))
    # Tables are indexed by k + pad, so a step that reads k = mode + j in
    # every row gathers table[pad + j:] by the mode.  The gather clips, as
    # mode="raise" buffers `out`; every index is in range anyway.
    pad = min(half_width, n) + 1
    scratch = scratch or _Scratch()
    up, down, link = scratch.keep(("walk", n, pad), lambda: _walk_tables(n, pad))
    shape = big.shape
    factor = scratch("walk.factor", shape)
    link_at = scratch("walk.link", shape)
    spare = scratch("walk.w", shape)
    step_w = scratch("walk.next_w", shape)

    for sign, ratio, steps in ((1, up, up_steps), (-1, down, down_steps)):
        if sign > 0:
            np.divide(small, big, out=factor)
        else:
            # only rows with mode >= 1 step down, and they have small >=
            # 1/sqrt(n+1)
            factor.fill(0.0)
            stepping = np.greater(mode, 0, out=scratch("walk.stepping", shape, bool))
            np.divide(big, small, out=factor, where=stepping)
        w = 1.0
        for step in range(1, steps + 1):
            at = pad + sign * step + (sign < 0)  # upper index of the pair
            np.take(ratio[at:], mode, mode="clip", out=step_w)
            step_w *= w
            step_w *= factor
            np.take(link[at:], mode, mode="clip", out=link_at)
            yield sign * step, step_w, w, link_at
            w, step_w, spare = step_w, spare, step_w


def _angles(name: str, values) -> np.ndarray:
    """`values` as a 1-D float array, refused unless it is one and finite."""
    angles = np.atleast_1d(np.asarray(values, dtype=float))
    if angles.ndim != 1 or not np.isfinite(angles).all():
        raise ValueError(f"{name} must be finite and 1-D")
    return angles


def dicke_magnitudes_batch(n: int, thetas: np.ndarray) -> np.ndarray:
    """Moduli of n-fold tensor-power Dicke coefficients, one row per angle.

    Row entries are sqrt(C(n,k)) |cos(theta/2)|^{n-k} |sin(theta/2)|^k for
    k = 0..n: `_mode_walk` over the whole row, divided by its norm and
    mirrored k -> n-k where sin > cos.  Within 1e-15 of exact arithmetic.
    Step j of a row goes to column n + j of a (rows, 2n+1) table, and one
    gather reads k = mode + j from it; the walk's buffers share one arena.
    """
    _check_copies(n)
    thetas = _angles("theta", thetas)
    c, s = np.abs(np.cos(thetas / 2)), np.abs(np.sin(thetas / 2))
    small = np.minimum(c, s)
    mode = ((n + 1) * small * small).astype(np.intp)
    steps = np.empty((len(thetas), 2 * n + 1))
    steps[:, n] = 1.0
    # every column a row reads, n - mode .. 2n - mode, is a step of its walk
    scratch = _Scratch(len(thetas) * _WALK_ROW_BYTES + 64 * 5)
    for j, step_w, _, _ in _mode_walk(n, np.maximum(c, s), small, mode, n, scratch):
        steps[:, n + j] = step_w
    w = np.take_along_axis(steps, n - mode[:, None] + np.arange(n + 1), axis=1)
    w /= np.sqrt(np.sum(w * w, axis=1, keepdims=True))
    mirror = s > c
    w[mirror] = w[mirror, ::-1]
    return w


def dicke_amplitudes_batch(
    n: int, thetas: np.ndarray, phis: np.ndarray
) -> np.ndarray:
    """Complex Dicke coefficients for batches of (theta, phi), one 1-D array
    of each and of equal length."""
    thetas, phis = _angles("theta", thetas), _angles("phi", phis)
    if thetas.shape != phis.shape:
        raise ValueError("theta and phi must have equal lengths")
    k = np.arange(n + 1)
    return dicke_magnitudes_batch(n, thetas) * np.exp(1j * k * phis[:, None])


def dicke_amplitudes(q: BlochQubit, n: int) -> np.ndarray:
    """Coefficients of the n-fold tensor power of `q` in the Dicke basis.

    Component k is cos^{n-k}(theta/2) sin^k(theta/2) e^{ik phi} sqrt(C(n,k)).
    The binomial theorem guarantees unit norm.
    """
    return dicke_amplitudes_batch(n, [q.theta], [q.phi])[0]


@dataclass(frozen=True)
class ReducedState:
    """Complex amplitude vector over the flat-ordered reduced basis."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_copies(self.n)
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (reduced_dim(self.n),):
            raise ValueError(
                f"amplitudes must have shape ({reduced_dim(self.n)},) for "
                f"n={self.n}, got {amps.shape}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class ReducedOperator:
    """Real symmetric operator on the reduced basis, stored dense as float64;
    complex or non-finite entries are refused."""

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        _check_copies(self.n)
        dim = reduced_dim(self.n)
        if np.iscomplexobj(self.entries):
            raise ValueError("operator entries must be real")
        mat = np.array(self.entries, dtype=float)
        if mat.shape != (dim, dim):
            raise ValueError(
                f"entries must have shape ({dim}, {dim}) for n={self.n}, "
                f"got {mat.shape}"
            )
        if not np.isfinite(mat).all():
            raise ValueError("operator entries must be finite")
        defect = float(np.max(np.abs(mat - mat.T)))
        if defect > 1e-12:
            raise ValueError(f"operator is not symmetric (defect {defect:.3e})")
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)


class Block(Enum):
    """Which program block joins the tail under a symmetric projector."""

    EVEN_TAIL = "even_tail"
    ODD_TAIL = "odd_tail"


def tail_split_vectors(n: int) -> np.ndarray:
    """Symmetric block-plus-tail states written in the reduced pair basis.

    Row k (k = 0..n+1) holds the (n+1)-qubit Dicke state |e_k> of one program
    block together with the tail, expanded over |e_m>|t> (flat pair index
    m*2 + t).  Splitting the tail off an (n+1)-qubit Dicke state gives

        |e_k> = sqrt((n+1-k)/(n+1)) |e_k>|0> + sqrt(k/(n+1)) |e_{k-1}>|1>.
    """
    _check_copies(n)
    vs = np.zeros((n + 2, 2 * (n + 1)))
    for k in range(n + 2):
        if k <= n:
            vs[k, 2 * k] = math.sqrt((n + 1 - k) / (n + 1))
        if k >= 1:
            vs[k, 2 * (k - 1) + 1] = math.sqrt(k / (n + 1))
    return vs


def build_symmetric_projector(n: int, block: Block) -> ReducedOperator:
    """Symmetric projector of one program block plus the tail, tensored with
    the identity on the spectator block, in the reduced basis.

    Rank is (n+1)(n+2): n+2 symmetric pair states times n+1 spectator labels.
    """
    _check_copies(n)
    # the pair-basis projector of rank n+2, the same for both blocks
    vs = tail_split_vectors(n)
    pair = vs.T @ vs
    pair = 0.5 * (pair + pair.T)
    eye = np.eye(n + 1)
    dim = reduced_dim(n)
    if block is Block.EVEN_TAIL:
        mat = np.kron(eye, pair)
    elif block is Block.ODD_TAIL:
        # Couples the odd label with the tail while the even label spectates.
        pair4 = pair.reshape(n + 1, 2, n + 1, 2)
        mat = np.einsum("lsku,mn->lmsknu", pair4, eye).reshape(dim, dim)
    else:
        raise ValueError(f"unknown block {block!r}")
    return ReducedOperator(n, mat)


def pair_angles(
    psi1s: Sequence[BlochQubit], psi2s: Sequence[BlochQubit], which: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bloch angles (theta1, phi1, theta2, phi2) of two paired qubit lists,
    one float array each, once `which` and the list lengths are checked."""
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    if len(psi1s) != len(psi2s):
        raise ValueError(f"got {len(psi1s)} first and {len(psi2s)} second qubits")
    return (
        np.array([q.theta for q in psi1s], dtype=float),
        np.array([q.phi for q in psi1s], dtype=float),
        np.array([q.theta for q in psi2s], dtype=float),
        np.array([q.phi for q in psi2s], dtype=float),
    )


def build_input_states(
    psi1s: Sequence[BlochQubit], psi2s: Sequence[BlochQubit], n: int, which: int
) -> np.ndarray:
    """Amplitudes of `build_input_state`, one row per pair (psi1s[i], psi2s[i]),
    shape (pairs, 2(n+1)^2) in the flat order l*2(n+1) + m*2 + t."""
    _check_copies(n)
    theta1, phi1, theta2, phi2 = pair_angles(psi1s, psi2s, which)
    # the odd and the even block in one walk
    blocks = dicke_amplitudes_batch(n, np.append(theta1, theta2), np.append(phi1, phi2))
    odd, even = blocks.reshape(2, -1, n + 1)
    tail_angles = (theta1, phi1) if which == 1 else (theta2, phi2)
    # one copy's Dicke coefficients are its two amplitudes
    tail = dicke_amplitudes_batch(1, *tail_angles)
    rows = len(odd)
    # the products of np.kron(odd, np.kron(even, tail)), in the same order
    pair = (even[:, :, None] * tail[:, None, :]).reshape(rows, 2 * (n + 1))
    return (odd[:, :, None] * pair[:, None, :]).reshape(rows, reduced_dim(n))


def build_input_state(
    psi1: BlochQubit, psi2: BlochQubit, n: int, which: int
) -> ReducedState:
    """Register state: psi1 fills the odd block, psi2 the even block, and the
    tail carries whichever of the two `which` selects."""
    return ReducedState(n, build_input_states([psi1], [psi2], n, which)[0])
