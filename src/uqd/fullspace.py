"""Brute-force oracle on the full 2^(2n+1)-dimensional register space.

Everything the reduced basis claims is recomputed here from explicit tensor
products and bitmask-enumerated Dicke states, with no shared shortcuts, so
agreement is evidence rather than tautology.  Dense full-space operators cap
at n <= 5 (dimension 2048).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .povm import (
    PovmParams,
    build_povm,
    closed_form_expectation,
    success_probability,
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
    ReducedState,
    _check_copies,
    binomial,
    build_input_state,
    build_symmetric_projector,
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


def _bit_weight(position: int, n: int) -> int:
    # Position 1 is the most significant bit of the flat index.
    return 1 << (2 * n + 1 - position)


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


def tensor_input(psi1: BlochQubit, psi2: BlochQubit, n: int, which: int) -> FullState:
    """Kronecker product over positions 1..2n+1: psi1 on odd, psi2 on even,
    the selected qubit on the tail."""
    _check_full(n)
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    tail = psi1 if which == 1 else psi2
    vec = np.ones(1, dtype=complex)
    for position in range(1, 2 * n + 2):
        if position == tail_position(n):
            qubit = tail
        elif position % 2 == 1:
            qubit = psi1
        else:
            qubit = psi2
        vec = np.kron(vec, qubit.amplitudes())
    return FullState(n, vec)


def symmetric_projector_full(n: int, positions: tuple[int, ...]) -> np.ndarray:
    """Projector onto the symmetric subspace of `positions` (n+1 of them),
    identity elsewhere, as a dense full-space matrix.

    Basis states sharing their outside bits and their inside excitation count
    k form a uniform block with entries 1/C(n+1, k).
    """
    _check_full(n)
    inside = tuple(sorted(positions))
    if len(inside) != n + 1 or len(set(inside)) != n + 1:
        raise ValueError(f"need n+1 = {n + 1} distinct positions, got {positions!r}")
    if inside[0] < 1 or inside[-1] > 2 * n + 1:
        raise ValueError(f"positions must lie in 1..{2 * n + 1}, got {positions!r}")
    outside = [p for p in range(1, 2 * n + 2) if p not in inside]

    dim = full_dim(n)
    projector = np.zeros((dim, dim))
    inside_weights = [_bit_weight(p, n) for p in inside]
    outside_weights = [_bit_weight(p, n) for p in outside]
    for k in range(n + 2):
        combos = list(itertools.combinations(inside_weights, k))
        share = 1.0 / len(combos)
        offsets = np.array([sum(c) for c in combos], dtype=int)
        for rest in itertools.product((0, 1), repeat=len(outside_weights)):
            base = sum(w for w, bit in zip(outside_weights, rest) if bit)
            idx = offsets + base
            projector[np.ix_(idx, idx)] += share
    return projector.astype(complex)


def reduced_basis_matrix(n: int) -> np.ndarray:
    """Full-space images of the reduced basis vectors, one per column,
    ordered by the flat reduced index."""
    _check_full(n)
    odd_w = [_bit_weight(p, n) for p in odd_positions(n)]
    even_w = [_bit_weight(p, n) for p in even_positions(n)]
    tail_w = _bit_weight(tail_position(n), n)

    matrix = np.zeros((full_dim(n), reduced_dim(n)), dtype=complex)
    column = 0
    for l in range(n + 1):
        odd_combos = list(itertools.combinations(odd_w, l))
        for m in range(n + 1):
            even_combos = list(itertools.combinations(even_w, m))
            amp = 1.0 / math.sqrt(binomial(n, l) * binomial(n, m))
            for t in (0, 1):
                base = tail_w if t else 0
                for oc in odd_combos:
                    for ec in even_combos:
                        matrix[sum(oc) + sum(ec) + base, column] = amp
                column += 1
    return matrix


def embed_reduced(state: ReducedState) -> FullState:
    """Lift a reduced-basis state to the full register space."""
    return FullState(state.n, reduced_basis_matrix(state.n) @ state.amplitudes)


def swap_positions(state: FullState, first: int, second: int) -> FullState:
    """Exchange two register positions."""
    n = state.n
    if not (1 <= first <= 2 * n + 1 and 1 <= second <= 2 * n + 1):
        raise ValueError(f"positions must lie in 1..{2 * n + 1}")
    tensor = state.amplitudes.reshape((2,) * (2 * n + 1))
    return FullState(n, np.swapaxes(tensor, first - 1, second - 1).reshape(-1))


def compare_reduced(full_value: float, reduced_value: float) -> float:
    """Absolute disagreement between the two computation routes."""
    return abs(float(full_value) - float(reduced_value))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, deviation: float, tol: float) -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(deviation < tol),
        detail=f"max deviation {deviation:.3e} (tol {tol:g})",
    )


def _expect_full(state: FullState, operator: np.ndarray) -> float:
    return float(np.real(np.vdot(state.amplitudes, operator @ state.amplitudes)))


def _random_qubits(rng: np.random.Generator, count: int) -> list[BlochQubit]:
    thetas = np.arccos(rng.uniform(-1.0, 1.0, size=count))
    phis = rng.uniform(0.0, 2 * math.pi, size=count)
    return [BlochQubit(float(t), float(p)) for t, p in zip(thetas, phis)]


def run_verification(n_max: int, pairs: int = 100, seed: int = 2024) -> list[CheckResult]:
    """Cross-check the reduced-basis machinery against the full-space oracle
    for every n up to n_max.  Returns one result per named check."""
    _check_full(n_max)
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    for n in range(1, n_max + 1):
        embedding = reduced_basis_matrix(n)
        gram = embedding.conj().T @ embedding
        results.append(
            _result(
                f"n={n} reduced embedding orthonormal",
                float(np.max(np.abs(gram - np.eye(reduced_dim(n))))),
                1e-12,
            )
        )

        even_tail = tuple(even_positions(n)) + (tail_position(n),)
        odd_tail = tuple(odd_positions(n)) + (tail_position(n),)
        p_even_full = symmetric_projector_full(n, even_tail)
        p_odd_full = symmetric_projector_full(n, odd_tail)
        p_even_red = build_symmetric_projector(n, Block.EVEN_TAIL).entries
        p_odd_red = build_symmetric_projector(n, Block.ODD_TAIL).entries

        idem = float(np.max(np.abs(p_even_full @ p_even_full - p_even_full)))
        results.append(_result(f"n={n} full projector idempotent", idem, 1e-10))

        trace_dev = max(
            abs(float(np.trace(p_even_full).real) - (n + 2) * 2**n),
            abs(float(np.trace(p_odd_full).real) - (n + 2) * 2**n),
            abs(float(np.trace(p_even_red).real) - (n + 1) * (n + 2)),
            abs(float(np.trace(p_odd_red).real) - (n + 1) * (n + 2)),
        )
        results.append(_result(f"n={n} projector ranks", trace_dev, 1e-9))

        params = PovmParams(0.35, 0.45)
        triple = build_povm(n, params)
        eye = np.eye(full_dim(n), dtype=complex)
        pi1_full = params.c1 * (eye - p_even_full)
        pi2_full = params.c2 * (eye - p_odd_full)

        qubits = _random_qubits(rng, 2 * pairs)
        embed_dev = 0.0
        overlap_dev = 0.0
        success_dev = 0.0
        leak_dev = 0.0
        for i in range(pairs):
            psi1, psi2 = qubits[2 * i], qubits[2 * i + 1]
            for which in (1, 2):
                reduced = build_input_state(psi1, psi2, n, which)
                full = tensor_input(psi1, psi2, n, which)
                embed_dev = max(
                    embed_dev,
                    float(np.max(np.abs(embedding @ reduced.amplitudes - full.amplitudes))),
                )
                p_full = p_even_full if which == 1 else p_odd_full
                p_red = p_even_red if which == 1 else p_odd_red
                e_full = _expect_full(full, p_full)
                e_red = float(
                    np.real(np.vdot(reduced.amplitudes, p_red @ reduced.amplitudes))
                )
                e_closed = closed_form_expectation(psi1, psi2, n, which)
                overlap_dev = max(
                    overlap_dev,
                    compare_reduced(e_full, e_red),
                    abs(e_closed - e_red),
                    abs(e_closed - e_full),
                )
                pi_full = pi1_full if which == 1 else pi2_full
                success_dev = max(
                    success_dev,
                    compare_reduced(
                        _expect_full(full, pi_full),
                        success_probability(reduced, triple, which),
                    ),
                )
                wrong = pi2_full if which == 1 else pi1_full
                leak_dev = max(leak_dev, abs(_expect_full(full, wrong)))
        results.append(_result(f"n={n} input embedding matches", embed_dev, 1e-10))
        results.append(
            _result(f"n={n} overlap full/reduced/closed agree", overlap_dev, 1e-10)
        )
        results.append(
            _result(f"n={n} success probabilities full vs reduced", success_dev, 1e-10)
        )
        results.append(_result(f"n={n} no misidentification (full)", leak_dev, 1e-10))

        psi1, psi2 = qubits[0], qubits[1]
        perm_dev = 0.0
        state1 = tensor_input(psi1, psi2, n, 1)
        for p, q in itertools.combinations(odd_tail, 2):
            swapped = swap_positions(state1, p, q)
            perm_dev = max(
                perm_dev, float(np.max(np.abs(swapped.amplitudes - state1.amplitudes)))
            )
        state2 = tensor_input(psi1, psi2, n, 2)
        for p, q in itertools.combinations(even_tail, 2):
            swapped = swap_positions(state2, p, q)
            perm_dev = max(
                perm_dev, float(np.max(np.abs(swapped.amplitudes - state2.amplitudes)))
            )
        results.append(_result(f"n={n} copy-position exchange symmetry", perm_dev, 1e-12))

        # A pair antisymmetrized inside the projected group must be
        # annihilated.  The even block holds |1> and the tail |0>, so
        # swapping an even position with the tail changes the state.
        first, second = even_tail[0], tail_position(n)
        seed_state = tensor_input(BlochQubit(0.0, 0.0), BlochQubit(math.pi, 0.0), n, 1)
        anti = seed_state.amplitudes - swap_positions(seed_state, first, second).amplitudes
        norm = float(np.linalg.norm(anti))
        if norm > 0:
            annihilated = float(np.max(np.abs(p_even_full @ (anti / norm))))
        else:
            annihilated = math.inf
        results.append(_result(f"n={n} antisymmetric pair annihilated", annihilated, 1e-12))

        results.append(
            _block_check(n, PovmParams(0.3, 0.4), embedding, p_even_full, p_odd_full)
        )

        spectral_dev = 0.0
        for c1, c2 in ((0.3, 0.4), (0.7, 0.2), (1.0, 1.0)):
            check = positivity_check(build_povm(n, PovmParams(c1, c2)))
            spectral_dev = max(
                spectral_dev, abs(check.numeric_min - check.closed_form_min)
            )
        results.append(
            _result(f"n={n} least eigenvalue matches closed form", spectral_dev, 1e-9)
        )

    return results


def _block_check(
    n: int,
    params: PovmParams,
    embedding: np.ndarray,
    p_even_full: np.ndarray,
    p_odd_full: np.ndarray,
) -> CheckResult:
    """Block sizes, per-block eigenvalue pairing and the shared extreme pair,
    for the dense extracted blocks and for the sector blocks; each sector
    block must also equal E_s^T pi0_full E_s, with E_s the full-space images
    of its reduced basis vectors."""
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

    # pi0_full = (1 - c1 - c2) I + c1 P_even + c2 P_odd; the columns of E_s
    # vanish outside the basis states of weight s, so only those rows of the
    # projectors enter
    for s, block in enumerate(sectors):
        columns = [
            ReducedIndex(q // 2, s - q // 2 - q % 2, q % 2).to_flat(n)
            for q in range(2 * n + 2)
            if 0 <= s - q // 2 - q % 2 <= n
        ]
        e_s = embedding[:, columns]
        rows = np.flatnonzero(np.any(e_s != 0, axis=1))
        e_s = e_s[rows]
        sandwich = (
            (1.0 - params.c1 - params.c2) * np.eye(len(rows))
            + params.c1 * p_even_full[np.ix_(rows, rows)]
            + params.c2 * p_odd_full[np.ix_(rows, rows)]
        )
        oracle = e_s.conj().T @ sandwich @ e_s
        deviation = max(deviation, float(np.max(np.abs(oracle - block))))
    return _result(f"n={n} block structure and eigenvalue pairing", deviation, 1e-9)
