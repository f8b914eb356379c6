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
is a real one.  The pass runs the same kernel, `_project_into`, which writes
through `out=` into buffers it is given.

The embedding E of the reduced basis is never formed either:
`_reduced_index_map` gives the one column and amplitude of each full-space
basis state.  E a is the gather a[column] * amplitude; E^T E is diagonal,
with the squared amplitudes summed per column by `np.bincount`; and E^T y is
a segmented sum, the entries of y sorted by column once per n, weighted and
summed per column by `np.add.reduceat`.

Every full-space array of the pass is a view of four buffers allocated once
per call and rewritten in place, each sized for a batch of `_BASIS_DOUBLES`
doubles (256 KB) at n = 5.  The whole-space checks apply both projectors to
every basis column, a batch of identity columns at a time; the block check
projects the images of the reduced basis vectors, written into a buffer from
the index map, a batch at a time.  Both pack 4 real columns into each entry
of the trailing axis of the (rows, dim, parts) view the kernel takes, so
each gather moves a 32-byte run rather than one double.  The sampled qubit
pairs are checked a batch at a time, 8 of the 100 pairs at n = 5, with
their Kronecker products built in a buffer too, each step two multiplies
over the long axis.  The batch sizes do not change any result.  The dense
references are array passes over the bit table and `math.comb`:
`symmetric_projector_full` compares keys (outside bits, inside popcount),
and `reduced_basis_matrix` writes the index map into a dense view; the tests
compare against both, and the pass calls neither.  The reduced side the pass
checks is built in one batched call per (n, which, batch), from one table of
sampled qubits per n.  The oracle is capped at n <= 5 (dimension 2048).  On
a 2-core VM, `run_verification(5)` runs all 55 checks in 0.09 to 0.15 s,
as the shared host allows; a first call makes about 0.7 k minor page
faults, and every call from the third on under a dozen.  Its `tracemalloc`
peak is 1.96 MiB.
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
    psi1s: list[BlochQubit],
    psi2s: list[BlochQubit],
    n: int,
    which: int,
    buffer: np.ndarray | None = None,
) -> np.ndarray:
    """Kronecker products over positions 1..2n+1, one row per qubit pair:
    psi1 on odd, psi2 on even, the selected qubit on the tail.

    The rows are the (pairs, 2^(2n+1)) front of `buffer`, a flat complex128
    array of at least 1.5 times that size, allocated if not given; the
    partial products alternate between the front and the space behind it.
    Each step multiplies the long axis by one amplitude per pair into the
    even entries of the next product and by the other into the odd ones:
    the products of one broadcast multiply, so the same rows."""
    _check_full(n)
    theta1, phi1, theta2, phi2 = pair_angles(psi1s, psi2s, which)
    amps1 = _qubit_amplitudes(theta1, phi1)
    amps2 = _qubit_amplitudes(theta2, phi2)
    size = len(psi1s) * full_dim(n)
    if buffer is None:
        buffer = np.empty(3 * size // 2, dtype=complex)
    states = np.ones((len(psi1s), 1), dtype=complex)
    for j, qubit in enumerate([amps1, amps2] * n + [amps1 if which == 1 else amps2]):
        # the last of the 2n+1 products, j = 2n, lands in front
        start = size * (j % 2)
        product = buffer[start : start + 2 * states.size].reshape(len(states), -1, 2)
        for bit in (0, 1):
            np.multiply(states, qubit[:, bit, None], out=product[..., bit])
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


def _project_into(
    n: int,
    inside: tuple[int, ...],
    real: np.ndarray,
    out: np.ndarray,
    spare: np.ndarray,
) -> np.ndarray:
    """The apply of `apply_symmetric_projector` on float64 (rows, dim, parts)
    arrays for the sorted group `inside`, written into `out`, with `spare`
    holding the gathered rows and their product.  `out` and `spare` are
    C-contiguous, and neither shares memory with `real` or the other."""
    order, inverse, dicke = _projector_plan(n, inside)
    # mode="clip" writes straight into `out`; mode="raise" would buffer it
    np.take(real, order, axis=1, out=spare, mode="clip")
    flat = spare.reshape(-1, 2 ** (n + 1), 2**n * spare.shape[-1])
    np.matmul(dicke.T, dicke @ flat, out=flat)
    # a second gather, not a scatter into `order`, which measured slower
    return np.take(spare, inverse, axis=1, out=out, mode="clip")


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
    complex input and float64 otherwise.  The verification pass runs the
    same kernel, `_project_into`, in buffers of its own.
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
    applied = _project_into(n, inside, real, np.empty_like(real), np.empty_like(real))
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
# max(1, _BASIS_DOUBLES // dim) identity columns at a time, 16 (256 KB) at
# n = 5 and every column at n <= 3, so the four buffers of a pass take 1 MB
# at n = 5; `_block_check` takes as many rows of E^T, and the pair loop half
# as many complex rows (8 pairs at n = 5, all 100 at n <= 3).  Columns
# packed 4 to an entry made the half-size batches affordable: a child `uqd
# verify --n-max 5` takes 0.31 s, 40.2 MB peak RSS and 5.7 k minor page
# faults on a 2-core VM (0.33 s, 41.3 MB and 6.0 k with one column to an
# entry in 512 KB batches)
_BASIS_DOUBLES = 2**15

# qubit pairs sampled per n, and the seed of the one generator they come from
VERIFY_PAIRS = 100
VERIFY_SEED = 2024


def _batches(n: int) -> tuple[int, int, int]:
    """Rows per batch of the whole-space checks (identity columns), of
    `_block_check` (rows of E^T) and of the pair loop (complex rows)."""
    rows = max(1, _BASIS_DOUBLES // full_dim(n))
    pairs = max(1, rows // 2)
    return min(rows, full_dim(n)), min(rows, reduced_dim(n)), min(pairs, VERIFY_PAIRS)


def _oracle_buffers(n_max: int) -> np.ndarray:
    """Four float64 buffers, as the rows of one array, each large enough for
    a batch of any of the three loops at any n up to n_max.  The loops
    rewrite them in place, so a pass allocates its full-space arrays once:
    arrays made per batch were trimmed by malloc and faulted in again."""
    sizes = [
        full_dim(n) * max(columns, rows, 2 * pairs)
        for n in range(1, n_max + 1)
        for columns, rows, pairs in [_batches(n)]
    ]
    return np.empty((4, max(sizes)))


def _expectations(
    states: np.ndarray, applied: np.ndarray, product: np.ndarray | None = None
) -> np.ndarray:
    """Re <psi|A psi> per row, given the complex rows psi and A psi: one real
    product per part, Re <s|a> = <s.re|a.re> + <s.im|a.im>, so no conjugate
    is copied.  Each product is written into the real buffer `product`,
    if one is given."""
    real = np.sum(np.multiply(states.real, applied.real, out=product), axis=-1)
    return real + np.sum(np.multiply(states.imag, applied.imag, out=product), axis=-1)


def _whole_space_checks(
    n: int,
    even_tail: tuple[int, ...],
    odd_tail: tuple[int, ...],
    buffers: np.ndarray,
) -> tuple[float, float, float]:
    """(idempotence deviation of P_even, trace of P_even, trace of P_odd),
    with both projectors applied to every basis column, a batch of columns
    at a time, 4 to an entry of the trailing axis (2, or 1, when 4 does not
    divide the batch).  The identity, P_even, P_odd and the spare are views
    of the four `buffers`, those of `_oracle_buffers`; the identity's ones
    are set before a batch's applies and reset after, and both diagonals are
    read before P_even P_even is written over P_odd.  Each column's
    arithmetic does not depend on its batch or entry, and neither `max` nor
    `math.fsum` on the order, so the results do not depend on the batch."""
    dim, batch = full_dim(n), _batches(n)[0]
    buffers[0].fill(0.0)
    diagonals = np.empty((2, dim))
    idem = 0.0
    for start in range(0, dim, batch):
        columns = np.arange(min(batch, dim - start))
        index = start + columns
        parts = math.gcd(columns.size, 4)
        at = (columns // parts, index, columns % parts)
        views = buffers[:, : columns.size * dim].reshape(4, -1, dim, parts)
        identity, p_even, p_odd, spare = views
        identity[at] = 1.0
        _project_into(n, even_tail, identity, p_even, spare)
        _project_into(n, odd_tail, identity, p_odd, spare)
        identity[at] = 0.0
        diagonals[:, index] = p_even[at], p_odd[at]
        twice = _project_into(n, even_tail, p_even, p_odd, spare)
        np.abs(np.subtract(twice, p_even, out=twice), out=twice)
        idem = max(idem, float(np.max(twice)))
    return idem, math.fsum(diagonals[0]), math.fsum(diagonals[1])


def run_verification(n_max: int) -> list[CheckResult]:
    """Cross-check the reduced-basis machinery against the full-space oracle
    for every n up to n_max.  Returns one result per named check.

    Every full-space projector is applied through `_project_into`, the
    kernel of `apply_symmetric_projector`, and the embedding through
    `_reduced_index_map`; no 2^(2n+1)-square matrix and no dense embedding
    is formed.  The full-space arrays are views of `_oracle_buffers(n_max)`,
    allocated once per call."""
    _check_full(n_max)
    rng = np.random.default_rng(VERIFY_SEED)
    results: list[CheckResult] = []
    buffers = _oracle_buffers(n_max)

    for n in range(1, n_max + 1):
        # E has one entry per row, so E^T E is diagonal and its diagonal is
        # the sum of the squared amplitudes in each column
        column, amplitude = _reduced_index_map(n)
        gram = np.bincount(column, amplitude**2, reduced_dim(n))
        results.append(
            CheckResult(
                f"n={n} reduced embedding orthonormal",
                np.max(np.abs(gram - 1.0)),
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

        idem, even_trace, odd_trace = _whole_space_checks(
            n, even_tail, odd_tail, buffers
        )
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

        # per batch of pairs: A psi (before it, the embedding's error) and
        # the apply's spare in the first two buffers; the rows psi in front
        # of the last two, whose partial products run on behind them; then
        # the real products of `_expectations` in the last
        pair_batch, dim = _batches(n)[2], full_dim(n)
        kron = buffers[2:].reshape(-1).view(complex)
        qubits = sample_qubits(rng, 2 * VERIFY_PAIRS)
        firsts, seconds = qubits[0::2], qubits[1::2]
        embed_dev = overlap_dev = success_dev = leak_dev = 0.0
        for start in range(0, VERIFY_PAIRS, pair_batch):
            psi1s = firsts[start : start + pair_batch]
            psi2s = seconds[start : start + pair_batch]
            k = len(psi1s)
            lifted, spare = buffers[:2, : 2 * k * dim].reshape(2, k, dim, 2)
            applied = lifted.view(complex)[..., 0]
            product = buffers[3, : k * dim].reshape(k, dim)
            for which in (1, 2):
                wrong = 3 - which
                full = tensor_inputs(psi1s, psi2s, n, which, kron)
                real = full.view(np.float64).reshape(k, dim, 2)
                amplitudes = build_input_states(psi1s, psi2s, n, which)
                np.take(amplitudes, column, axis=1, out=applied, mode="clip")
                applied *= amplitude
                applied -= full
                embed_dev = max(
                    embed_dev, float(np.max(np.abs(applied, out=product)))
                )

                norms = _expectations(full, full, product)
                _project_into(n, groups[which], real, lifted, spare)
                e_full = _expectations(full, applied, product)
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
                _project_into(n, groups[wrong], real, lifted, spare)
                e_wrong = _expectations(full, applied, product)
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

        results.append(
            _block_check(n, PovmParams(0.3, 0.4), column, amplitude, buffers)
        )

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


def _column_segments(column: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(by_column, starts): the full-space indices in a stable sort by their
    reduced column, and where each of the `size` columns, then the end,
    starts in that order."""
    by_column = np.argsort(column, kind="stable")
    return by_column, np.searchsorted(column[by_column], np.arange(size + 1))


def _embedding_transpose(
    rows: np.ndarray, amplitude: np.ndarray, segments: tuple, spare: np.ndarray
) -> np.ndarray:
    """E^T of float64 (rows, dim, parts) rows, as (rows, size, parts): each
    row's entries in column order, times their amplitudes, summed per column
    by one `np.add.reduceat`.  E has one entry per full-space row, so this is
    the product with E^T without its zeros.  `spare` is a C-contiguous array
    of the shape of `rows` that holds the weighted entries."""
    by_column, starts = segments
    np.take(rows, by_column, axis=1, out=spare, mode="clip")
    spare *= amplitude[by_column, None]
    return np.add.reduceat(spare, starts[:-1], axis=1)


def _block_check(
    n: int,
    params: PovmParams,
    column: np.ndarray,
    amplitude: np.ndarray,
    buffers: np.ndarray,
) -> CheckResult:
    """Block sizes, per-block eigenvalue pairing and the shared extreme pair,
    for the dense extracted blocks and for the sector blocks; the sector
    blocks, put back on the diagonal, must also equal E^T pi0_full E, with E
    the full-space images of the reduced basis vectors, given by the index
    map (column, amplitude) of `_reduced_index_map`.

    A batch of images at a time is written from the map into the first of
    the four `buffers`, 4 to an entry of the trailing axis (2, or 1, when 4
    does not divide the batch), and reset after its applies; E^T y is the
    segmented sum of `_embedding_transpose`, over one sort by column per n.
    No dense E is formed."""
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
    size, dim = reduced_dim(n), full_dim(n)
    batch = _batches(n)[1]
    buffers[0].fill(0.0)
    by_column, starts = segments = _column_segments(column, size)
    oracle = np.empty((size, size))
    for start in range(0, size, batch):
        stop = min(start + batch, size)
        parts = math.gcd(stop - start, 4)
        views = buffers[:, : (stop - start) * dim].reshape(4, -1, dim, parts)
        images, p_even, p_odd, pi0 = views
        entries = by_column[starts[start] : starts[stop]]
        rows = column[entries] - start
        at = (rows // parts, entries, rows % parts)
        images[at] = amplitude[entries]
        _project_into(n, even_tail, images, p_even, pi0)
        _project_into(n, odd_tail, images, p_odd, pi0)
        np.multiply(images, 1.0 - params.c1 - params.c2, out=pi0)
        images[at] = 0.0
        p_even *= params.c1
        p_odd *= params.c2
        pi0 += p_even
        pi0 += p_odd
        reduced = _embedding_transpose(pi0, amplitude, segments, p_even)
        # the image of column start + q is entry q // parts, part q % parts
        oracle[:, start:stop] = reduced.transpose(1, 0, 2).reshape(size, -1)
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
