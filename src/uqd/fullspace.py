"""Brute-force oracle on the full 2^(2n+1)-dimensional register space.

Everything the reduced basis claims is recomputed here from explicit tensor
products and the bit table of every full-space index (`_bit_table`), with no
shared shortcuts, so agreement is evidence rather than tautology.  Every
operator is a real float64 array.

The verification pass never stores a full-space operator.
`apply_symmetric_projector` applies a block-plus-tail projector to a batch of
states: one flat index permutation gathers the n+1 projected qubits to the
front, D^T D multiplies them, where D holds the n+2 normalised Dicke rows
enumerated by popcount, and the inverse permutation gathers them back.  The
two permutations and D form the group's plan, built once per (n, sorted
group) and kept read-only in a bounded cache that holds every production
group.  Complex states are applied through a float64 view, so every product
is a real one.

Every full-space array of the pass is sized by one budget of
`_BASIS_DOUBLES` doubles (512 KB), so that a batch's arrays stay in a 4 MB
L2 cache.  The whole-space checks apply both projectors to every basis
column, a batch of columns at a time, in one reused identity buffer.  The
block check projects the columns of the embedding a batch at a time, and
the sampled qubit pairs are checked a batch at a time: 16 of the 100 pairs
at n = 5.  The batch sizes do not change any result.  The dense references
are array passes over the bit table and `math.comb`:
`symmetric_projector_full` compares keys (outside bits, inside popcount),
and `reduced_basis_matrix` writes `_reduced_index_map`, the one column and
amplitude of each basis state, into a dense view.  The input-embedding
check lifts reduced states through that map with one gather.  The reduced
side the pass checks is built in one batched call per (n, which, batch),
from one table of sampled qubits per n.  The oracle is capped at n <= 5
(dimension 2048); `run_verification(5)` runs all 55 checks in 0.15-0.20 s
on a 2-core VM, and its `tracemalloc` peak is 5.6 MB, most of it in the
block check.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .montecarlo import sample_qubits
from .povm import (
    PovmParams,
    build_povm,
    closed_form_expectations,
    success_probabilities,
)
from .spectral import (
    build_transform,
    closed_form_extreme_eigenvalues,
    extract_blocks,
    positivity_check,
    sector_blocks,
    transformed_pi0,
)
from .symmetric import (
    Block,
    BlochQubit,
    ReducedIndex,
    _check_copies,
    build_input_states,
    build_symmetric_projector,
    pair_angles,
    reduced_dim,
)

FULL_N_MAX = 5


def _check_full(n: int) -> None:
    _check_copies(n)
    if n > FULL_N_MAX:
        raise ValueError(
            f"full-space oracle is capped at n <= {FULL_N_MAX}, got {n}"
        )


def full_dim(n: int) -> int:
    return 2 ** (2 * n + 1)


def odd_positions(n: int) -> tuple[int, ...]:
    return tuple(range(1, 2 * n, 2))


def even_positions(n: int) -> tuple[int, ...]:
    return tuple(range(2, 2 * n + 1, 2))


def tail_position(n: int) -> int:
    return 2 * n + 1


def _bit_table(n: int) -> np.ndarray:
    """Bits of every full-space index, shape (2n+1, 2^(2n+1)): row p-1 holds
    the bit at position p, and position 1 is the most significant."""
    shifts = np.arange(2 * n, -1, -1)
    return (np.arange(full_dim(n)) >> shifts[:, None]) & 1


@dataclass(frozen=True)
class FullState:
    """Dense amplitude vector over all 2^(2n+1) computational basis states."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_full(self.n)
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (full_dim(self.n),):
            raise ValueError(
                f"amplitudes must have shape ({full_dim(self.n)},), got {amps.shape}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def _qubit_amplitudes(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Rows (cos(theta/2), sin(theta/2) e^{i phi}), as `BlochQubit.amplitudes`."""
    return np.stack(
        [np.cos(thetas / 2), np.sin(thetas / 2) * np.exp(1j * phis)], axis=-1
    )


def tensor_inputs(
    psi1s: list[BlochQubit], psi2s: list[BlochQubit], n: int, which: int
) -> np.ndarray:
    """Kronecker products over positions 1..2n+1, one row per qubit pair:
    psi1 on odd, psi2 on even, the selected qubit on the tail."""
    _check_full(n)
    theta1, phi1, theta2, phi2 = pair_angles(psi1s, psi2s, which)
    amps1 = _qubit_amplitudes(theta1, phi1)
    amps2 = _qubit_amplitudes(theta2, phi2)
    states = np.ones((len(psi1s), 1), dtype=complex)
    for qubit in [amps1, amps2] * n + [amps1 if which == 1 else amps2]:
        product = states[:, :, None] * qubit[:, None, :]
        states = product.reshape(len(states), -1)
    return states


def tensor_input(psi1: BlochQubit, psi2: BlochQubit, n: int, which: int) -> FullState:
    """Kronecker product over positions 1..2n+1: psi1 on odd, psi2 on even,
    the selected qubit on the tail."""
    return FullState(n, tensor_inputs([psi1], [psi2], n, which)[0])


def _projected_group(n: int, positions: tuple[int, ...]) -> tuple[int, ...]:
    _check_full(n)
    inside = tuple(sorted(positions))
    if len(inside) != n + 1 or len(set(inside)) != n + 1:
        raise ValueError(f"need n+1 = {n + 1} distinct positions, got {positions!r}")
    if inside[0] < 1 or inside[-1] > 2 * n + 1:
        raise ValueError(f"positions must lie in 1..{2 * n + 1}, got {positions!r}")
    return inside


def _front_order(n: int, inside: tuple[int, ...]) -> np.ndarray:
    """Flat-index permutation that gathers the bits at `inside` to the front,
    in position order, ahead of the other bits in theirs: entry j is the
    full-space index whose amplitude lands in slot j."""
    indices = np.arange(full_dim(n)).reshape((2,) * (2 * n + 1))
    front = np.moveaxis(indices, [p - 1 for p in inside], range(n + 1))
    return front.reshape(-1)


@functools.lru_cache(maxsize=2 * FULL_N_MAX)
def _projector_plan(
    n: int, inside: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, inverse, dicke) of the apply for one sorted group, built once
    and read-only: the `_front_order` gather, its inverse permutation and the
    (n+2, 2^(n+1)) matrix D of normalised Dicke rows.  The cache holds the
    2 FULL_N_MAX production groups."""
    order = _front_order(n, inside)
    inverse = np.argsort(order)
    popcount = np.array([bin(b).count("1") for b in range(2 ** (n + 1))])
    counts = np.arange(n + 2)
    scale = np.array([math.comb(n + 1, k) for k in range(n + 2)], dtype=float)
    dicke = (popcount[None, :] == counts[:, None]) / np.sqrt(scale)[:, None]
    for table in (order, inverse, dicke):
        table.setflags(write=False)
    return order, inverse, dicke


def apply_symmetric_projector(
    n: int, positions: tuple[int, ...], states: np.ndarray
) -> np.ndarray:
    """Apply the projector of `symmetric_projector_full(n, positions)` to
    states of shape (..., 2^(2n+1)) without forming it.

    Per state, one gather moves the n+1 projected bits to the front and the
    amplitudes are read as a (2^(n+1), 2^n) matrix whose row index b holds
    the projected bits; the result is D^T D times that matrix, with
    D[k, b] = C(n+1, k)^(-1/2) when b has k set bits and 0 otherwise,
    gathered back by the inverse permutation.  Complex states go through a
    float64 view with the real and imaginary parts side by side, so D
    multiplies them in one real product.  The result is complex128 for
    complex input and float64 otherwise.
    """
    inside = _projected_group(n, positions)
    states = np.asarray(states)
    dim = full_dim(n)
    if states.shape[-1:] != (dim,):
        raise ValueError(
            f"states must have last axis {dim}, got shape {states.shape}"
        )
    dtype, parts = (np.complex128, 2) if np.iscomplexobj(states) else (np.float64, 1)
    rows = np.ascontiguousarray(states, dtype=dtype).reshape(-1, dim)
    real = rows.view(np.float64).reshape(len(rows), dim, parts)
    order, inverse, dicke = _projector_plan(n, inside)
    gathered = np.take(real, order, axis=1).reshape(-1, 2 ** (n + 1), 2**n * parts)
    projected = (dicke.T @ (dicke @ gathered)).reshape(real.shape)
    # a second gather, not a scatter into `order`, which measured slower
    applied = np.take(projected, inverse, axis=1)
    return applied.view(dtype).reshape(states.shape)


def symmetric_projector_full(n: int, positions: tuple[int, ...]) -> np.ndarray:
    """Projector onto the symmetric subspace of `positions` (n+1 of them),
    identity elsewhere, as a dense full-space matrix.

    Basis states sharing their outside bits and their inside excitation count
    k form a uniform block with entries 1/C(n+1, k).
    """
    inside = _projected_group(n, positions)
    bits = _bit_table(n)
    is_inside = np.isin(np.arange(1, 2 * n + 2), inside)
    count = bits[is_inside].sum(axis=0)
    key = np.vstack((bits[~is_inside], count))
    block = np.unique(key, axis=1, return_inverse=True)[1].reshape(-1)
    share = 1.0 / np.array([math.comb(n + 1, k) for k in range(n + 2)])
    return np.where(block[:, None] == block[None, :], share[count], 0.0)


def _reduced_index_map(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(column, amplitude) of every full-space basis state in the reduced
    basis: the state with l odd and m even bits set and tail bit t lies in
    column l*2(n+1) + m*2 + t alone, with amplitude 1/sqrt(C(n, l) C(n, m)).
    So E a is the gather a[column] * amplitude."""
    _check_full(n)
    bits = _bit_table(n)
    l = bits[np.subtract(odd_positions(n), 1)].sum(axis=0)
    m = bits[np.subtract(even_positions(n), 1)].sum(axis=0)
    t = bits[tail_position(n) - 1]
    comb = np.array([math.comb(n, k) for k in range(n + 1)])
    return l * 2 * (n + 1) + m * 2 + t, 1.0 / np.sqrt(comb[l] * comb[m])


def reduced_basis_matrix(n: int) -> np.ndarray:
    """Full-space images of the reduced basis vectors, one per column,
    ordered by the flat reduced index: the dense view of `_reduced_index_map`.
    """
    column, amplitude = _reduced_index_map(n)
    matrix = np.zeros((full_dim(n), reduced_dim(n)))
    matrix[np.arange(full_dim(n)), column] = amplitude
    return matrix


def swap_positions(state: FullState, first: int, second: int) -> FullState:
    """Exchange two register positions."""
    n = state.n
    if not (1 <= first <= 2 * n + 1 and 1 <= second <= 2 * n + 1):
        raise ValueError(f"positions must lie in 1..{2 * n + 1}")
    tensor = state.amplitudes.reshape((2,) * (2 * n + 1))
    return FullState(n, np.swapaxes(tensor, first - 1, second - 1).reshape(-1))


@dataclass(frozen=True)
class CheckResult:
    """One named check: the largest deviation seen and the tolerance it must
    stay below."""

    name: str
    deviation: float
    tol: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "deviation", float(self.deviation))
        object.__setattr__(self, "tol", float(self.tol))

    @property
    def passed(self) -> bool:
        return self.deviation < self.tol

    @property
    def detail(self) -> str:
        return f"max deviation {self.deviation:.3e} (tol {self.tol:g})"

    def to_dict(self) -> dict:
        """JSON-ready fields; a non-finite deviation becomes None (null)."""
        return {
            "name": self.name,
            "deviation": self.deviation if math.isfinite(self.deviation) else None,
            "tol": self.tol,
            "passed": self.passed,
        }


# doubles per batch of full-space rows: the whole-space checks take
# max(1, _BASIS_DOUBLES // dim) identity columns at a time, 32 (512 KB) at
# n = 5 and every column at n <= 3, so the half-dozen such arrays one batch
# keeps live fit a 4 MB L2 cache, which 256-column (4 MB) batches did not;
# `_block_check` takes as many rows of E^T, and the pair loop half as many
# complex rows (16 pairs at n = 5, all 100 at n <= 3)
_BASIS_DOUBLES = 2**16

# qubit pairs sampled per n, and the seed of the one generator they come from
VERIFY_PAIRS = 100
VERIFY_SEED = 2024


def _expectations(states: np.ndarray, applied: np.ndarray) -> np.ndarray:
    """Re <psi|A psi> per row, given the rows psi and A psi: one real product
    per part, Re <s|a> = <s.re|a.re> + <s.im|a.im>, so no conjugate is
    copied.  The rows are complex."""
    return np.sum(states.real * applied.real, axis=-1) + np.sum(
        states.imag * applied.imag, axis=-1
    )


def _whole_space_checks(
    n: int, even_tail: tuple[int, ...], odd_tail: tuple[int, ...]
) -> tuple[float, float, float]:
    """(idempotence deviation of P_even, trace of P_even, trace of P_odd),
    with both projectors applied to every basis column, a batch of columns
    at a time, all in one identity buffer whose ones are set before a
    batch's applies and reset after.  Each column's arithmetic does not
    depend on the batch, and neither `max` nor `math.fsum` on the order, so
    the results do not depend on the batch size."""
    dim = full_dim(n)
    batch = min(dim, max(1, _BASIS_DOUBLES // dim))
    identity = np.zeros((batch, dim))
    diagonals = np.empty((2, dim))
    idem = 0.0
    for start in range(0, dim, batch):
        rows = np.arange(min(batch, dim - start))
        index = start + rows
        columns = identity[: len(rows)]
        columns[rows, index] = 1.0
        p_even = apply_symmetric_projector(n, even_tail, columns)
        p_odd = apply_symmetric_projector(n, odd_tail, columns)
        columns[rows, index] = 0.0
        twice = apply_symmetric_projector(n, even_tail, p_even)
        np.abs(np.subtract(twice, p_even, out=twice), out=twice)
        idem = max(idem, float(np.max(twice)))
        diagonals[:, index] = p_even[rows, index], p_odd[rows, index]
    return idem, math.fsum(diagonals[0]), math.fsum(diagonals[1])


def run_verification(n_max: int) -> list[CheckResult]:
    """Cross-check the reduced-basis machinery against the full-space oracle
    for every n up to n_max.  Returns one result per named check.

    Every full-space projector is applied through `apply_symmetric_projector`;
    no 2^(2n+1)-square matrix is formed."""
    _check_full(n_max)
    rng = np.random.default_rng(VERIFY_SEED)
    results: list[CheckResult] = []

    for n in range(1, n_max + 1):
        embedding = reduced_basis_matrix(n)
        gram = embedding.T @ embedding
        results.append(
            CheckResult(
                f"n={n} reduced embedding orthonormal",
                np.max(np.abs(gram - np.eye(reduced_dim(n)))),
                1e-12,
            )
        )

        even_tail = even_positions(n) + (tail_position(n),)
        odd_tail = odd_positions(n) + (tail_position(n),)
        groups = {1: even_tail, 2: odd_tail}
        p_red = {
            1: build_symmetric_projector(n, Block.EVEN_TAIL).entries,
            2: build_symmetric_projector(n, Block.ODD_TAIL).entries,
        }

        idem, even_trace, odd_trace = _whole_space_checks(n, even_tail, odd_tail)
        results.append(CheckResult(f"n={n} full projector idempotent", idem, 1e-10))

        trace_dev = max(
            abs(even_trace - (n + 2) * 2**n),
            abs(odd_trace - (n + 2) * 2**n),
            abs(float(np.trace(p_red[1])) - (n + 1) * (n + 2)),
            abs(float(np.trace(p_red[2])) - (n + 1) * (n + 2)),
        )
        results.append(CheckResult(f"n={n} projector ranks", trace_dev, 1e-9))

        params = PovmParams(0.35, 0.45)
        scales = {1: params.c1, 2: params.c2}
        triple = build_povm(n, params)

        # a complex amplitude is two doubles, so a batch of pairs holds as
        # many doubles as a batch of identity columns
        pair_batch = max(1, _BASIS_DOUBLES // (2 * full_dim(n)))
        column, amplitude = _reduced_index_map(n)
        qubits = sample_qubits(rng, 2 * VERIFY_PAIRS)
        firsts, seconds = qubits[0::2], qubits[1::2]
        embed_dev = overlap_dev = success_dev = leak_dev = 0.0
        for start in range(0, VERIFY_PAIRS, pair_batch):
            psi1s = firsts[start : start + pair_batch]
            psi2s = seconds[start : start + pair_batch]
            for which in (1, 2):
                wrong = 3 - which
                full = tensor_inputs(psi1s, psi2s, n, which)
                amplitudes = build_input_states(psi1s, psi2s, n, which)
                embed_dev = max(
                    embed_dev,
                    float(np.max(np.abs(amplitudes[:, column] * amplitude - full))),
                )

                norms = _expectations(full, full)
                e_full = _expectations(
                    full, apply_symmetric_projector(n, groups[which], full)
                )
                e_red = _expectations(amplitudes, amplitudes @ p_red[which].T)
                e_closed = closed_form_expectations(psi1s, psi2s, n, which)
                overlap_dev = max(
                    overlap_dev,
                    float(np.max(np.abs(e_full - e_red))),
                    float(np.max(np.abs(e_closed - e_red))),
                    float(np.max(np.abs(e_closed - e_full))),
                )

                # <psi| c (I - P) |psi> = c (|psi|^2 - <psi|P psi>)
                success_full = scales[which] * (norms - e_full)
                success_red = success_probabilities(amplitudes, triple, which)
                success_dev = max(
                    success_dev, float(np.max(np.abs(success_full - success_red)))
                )
                e_wrong = _expectations(
                    full, apply_symmetric_projector(n, groups[wrong], full)
                )
                leak = scales[wrong] * (norms - e_wrong)
                leak_dev = max(leak_dev, float(np.max(np.abs(leak))))
        results.append(CheckResult(f"n={n} input embedding matches", embed_dev, 1e-10))
        results.append(
            CheckResult(f"n={n} overlap full/reduced/closed agree", overlap_dev, 1e-10)
        )
        results.append(
            CheckResult(
                f"n={n} success probabilities full vs reduced", success_dev, 1e-10
            )
        )
        results.append(
            CheckResult(f"n={n} no misidentification (full)", leak_dev, 1e-10)
        )

        perm_dev = 0.0
        for which, group in ((1, odd_tail), (2, even_tail)):
            state = tensor_input(qubits[0], qubits[1], n, which)
            for p, q in itertools.combinations(group, 2):
                swapped = swap_positions(state, p, q).amplitudes
                deviation = np.max(np.abs(swapped - state.amplitudes))
                perm_dev = max(perm_dev, float(deviation))
        results.append(
            CheckResult(f"n={n} copy-position exchange symmetry", perm_dev, 1e-12)
        )

        # A pair antisymmetrized inside the projected group must be
        # annihilated.  The even block holds |1> and the tail |0>, so
        # swapping an even position with the tail changes the state.
        first, second = even_tail[0], tail_position(n)
        seed_state = tensor_input(BlochQubit(0.0, 0.0), BlochQubit(math.pi, 0.0), n, 1)
        anti = seed_state.amplitudes - swap_positions(seed_state, first, second).amplitudes
        norm = float(np.linalg.norm(anti))
        if norm > 0:
            annihilated = float(
                np.max(np.abs(apply_symmetric_projector(n, even_tail, anti / norm)))
            )
        else:
            annihilated = math.inf
        results.append(
            CheckResult(f"n={n} antisymmetric pair annihilated", annihilated, 1e-12)
        )

        results.append(_block_check(n, PovmParams(0.3, 0.4), embedding))

        spectral_dev = 0.0
        for c1, c2 in ((0.3, 0.4), (0.7, 0.2), (1.0, 1.0)):
            check = positivity_check(build_povm(n, PovmParams(c1, c2)))
            spectral_dev = max(
                spectral_dev, abs(check.numeric_min - check.closed_form_min)
            )
        results.append(
            CheckResult(
                f"n={n} least eigenvalue matches closed form", spectral_dev, 1e-9
            )
        )

    return results


def _block_check(n: int, params: PovmParams, embedding: np.ndarray) -> CheckResult:
    """Block sizes, per-block eigenvalue pairing and the shared extreme pair,
    for the dense extracted blocks and for the sector blocks; the sector
    blocks, put back on the diagonal, must also equal E^T pi0_full E, with E
    the full-space images of the reduced basis vectors."""
    triple = build_povm(n, params)
    basis = build_transform(n)
    extracted = extract_blocks(transformed_pi0(triple, basis), basis)
    sectors = sector_blocks(n, params)
    spectra = [(b.l, b.eigenvalues) for b in extracted] + [
        (min(s, 2 * n + 1 - s), np.linalg.eigvalsh(block))
        for s, block in enumerate(sectors)
    ]
    low, high = closed_form_extreme_eigenvalues(n, params)
    pair_sum = 2.0 - params.c1 - params.c2
    deviation = 0.0
    for l, eigenvalues in spectra:
        eigs = np.sort(eigenvalues)
        deviation = max(deviation, abs(eigs[-1] - 1.0))
        for i in range(l):
            deviation = max(deviation, abs(eigs[i] + eigs[2 * l - 1 - i] - pair_sum))
        if l >= 1:
            deviation = max(
                deviation,
                float(np.min(np.abs(eigs - low))),
                float(np.min(np.abs(eigs - high))),
            )

    # pi0_full = (1 - c1 - c2) I + c1 P_even + c2 P_odd, applied to the
    # columns of E (held as rows), a batch of rows at a time
    even_tail = even_positions(n) + (tail_position(n),)
    odd_tail = odd_positions(n) + (tail_position(n),)
    size = reduced_dim(n)
    batch = max(1, _BASIS_DOUBLES // full_dim(n))
    oracle = np.empty((size, size))
    for start in range(0, size, batch):
        rows = slice(start, start + batch)
        images = np.ascontiguousarray(embedding[:, rows].T)
        pi0_images = (
            (1.0 - params.c1 - params.c2) * images
            + params.c1 * apply_symmetric_projector(n, even_tail, images)
            + params.c2 * apply_symmetric_projector(n, odd_tail, images)
        )
        oracle[:, rows] = embedding.T @ pi0_images.T
    assembled = np.zeros_like(oracle)
    for s, block in enumerate(sectors):
        members = [
            ReducedIndex(q // 2, s - q // 2 - q % 2, q % 2).to_flat(n)
            for q in range(2 * n + 2)
            if 0 <= s - q // 2 - q % 2 <= n
        ]
        assembled[np.ix_(members, members)] = block
    deviation = max(deviation, float(np.max(np.abs(oracle - assembled))))
    return CheckResult(f"n={n} block structure and eigenvalue pairing", deviation, 1e-9)
