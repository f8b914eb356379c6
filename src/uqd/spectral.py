"""Block structure and positivity of the inconclusive operator.

Both conclusive elements commute with the total excitation number across the
two program blocks and the tail, so in a basis adapted to the even-plus-tail
symmetric pairing the inconclusive operator splits into one block per
excitation sector.  Sectors 0..n give blocks of sizes 1, 3, ..., 2n+1 (the J
series); sectors n+1..2n+1 mirror them (the K series).  Apart from a
constant eigenvalue 1 in every block, eigenvalues come in pairs summing to
2 - c1 - c2, and the extreme pair is shared by every block of size >= 3:

    lambda_pm = 1 - (c1 + c2)/2
                +- sqrt(c1^2/4 + c2^2/4 + (n^2 - 2n - 1) c1 c2 / (2(n+1)^2)).

lambda_minus >= 0 is exactly the condition for (c1, c2) to describe a valid
measurement, and saturating it yields the constraint curve `constraint_c2`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .povm import PovmParams, PovmTriple, build_povm
from .symmetric import ReducedOperator, _check_copies, reduced_dim, tail_split_vectors

# Couplings below this magnitude count as structural zeros when blocks are
# detected from the matrix alone.
COUPLING_TOL = 1e-9

# All off-diagonal couplings carry a factor c2 (the even-tail projector is
# diagonal in the transformed basis), so block detection needs c2 above the
# coupling scale; below it the report falls back to the labeled grouping.
_GENERIC_C2_MIN = 1e-6


class BlockStructureError(RuntimeError):
    """The transformed inconclusive operator lacks the expected block layout."""


@dataclass(frozen=True)
class ColumnLabel:
    """Tag of one transformed-basis column.

    kind "eta" marks columns lying inside the even-plus-tail symmetric
    subspace (m = 0 and m = n+1 are the untransformed edge vectors); kind
    "chi" marks their orthogonal partners.  l is the odd-block Dicke label,
    m the even-plus-tail excitation; l + m indexes the block sector.
    """

    kind: str
    l: int
    m: int

    @property
    def excitation(self) -> int:
        return self.l + self.m


@dataclass(frozen=True)
class TransformedBasis:
    """Orthogonal column basis that block-diagonalizes the inconclusive
    operator, together with the per-column labels."""

    n: int
    vectors: np.ndarray
    labels: tuple[ColumnLabel, ...]

    def __post_init__(self) -> None:
        vecs = np.array(self.vectors, dtype=float)
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)


def build_transform(n: int) -> TransformedBasis:
    """Construct the adapted orthogonal basis.

    For m = 1..n the pair (|e_m>_E |0>_T, |e_{m-1}>_E |1>_T) is rotated onto
    the symmetric combination (an even-plus-tail Dicke state, kind "eta") and
    its orthogonal complement (kind "chi"); the edge vectors |e_0>_E |0>_T
    and |e_n>_E |1>_T are already symmetric and pass through unchanged.
    """
    _check_copies(n)
    dim = reduced_dim(n)
    width = 2 * (n + 1)
    splits = tail_split_vectors(n)

    columns: list[np.ndarray] = []
    labels: list[ColumnLabel] = []

    def add(l: int, pair_coeffs: np.ndarray, label: ColumnLabel) -> None:
        col = np.zeros(dim)
        col[l * width : (l + 1) * width] = pair_coeffs
        columns.append(col)
        labels.append(label)

    for l in range(n + 1):
        for m in range(1, n + 1):
            add(l, splits[m], ColumnLabel("eta", l, m))
    for l in range(n + 1):
        for m in range(1, n + 1):
            chi = np.zeros(width)
            chi[2 * m] = math.sqrt(m / (n + 1))
            chi[2 * (m - 1) + 1] = -math.sqrt((n + 1 - m) / (n + 1))
            add(l, chi, ColumnLabel("chi", l, m))
    for l in range(n + 1):
        add(l, splits[0], ColumnLabel("eta", l, 0))
    for l in range(n + 1):
        add(l, splits[n + 1], ColumnLabel("eta", l, n + 1))

    return TransformedBasis(n, np.column_stack(columns), tuple(labels))


def transformed_pi0(triple: PovmTriple, basis: TransformedBasis) -> ReducedOperator:
    """The inconclusive operator conjugated into the adapted basis."""
    if triple.n != basis.n:
        raise ValueError(f"measurement has n={triple.n}, basis has n={basis.n}")
    v = basis.vectors
    return ReducedOperator(triple.n, v.T @ triple.pi0.entries @ v)


@dataclass(frozen=True)
class ExtractedBlock:
    """One diagonal block in canonical internal ordering."""

    label: str
    l: int
    size: int
    eigenvalues: np.ndarray
    matrix: np.ndarray
    members: tuple[ColumnLabel, ...]


def _expected_sizes(n: int) -> list[int]:
    return sorted([2 * l + 1 for l in range(n + 1)] * 2)


def _canonical_order(members: list[tuple[int, ColumnLabel]], series: str):
    # Within a block: ascending tail-pair excitation for the J series,
    # descending for K, symmetric ("eta") column before its partner.
    def key(item: tuple[int, ColumnLabel]):
        lab = item[1]
        m = lab.m if series == "J" else -lab.m
        return (m, 0 if lab.kind == "eta" else 1)

    return sorted(members, key=key)


def extract_blocks(
    operator: ReducedOperator | np.ndarray,
    basis: TransformedBasis,
    coupling_tol: float = COUPLING_TOL,
) -> list[ExtractedBlock]:
    """Find the diagonal blocks of the transformed inconclusive operator.

    Membership comes from the matrix alone: entries above `coupling_tol` are
    edges of a graph whose connected components are the blocks.  The column
    labels supply each block's canonical internal ordering, in which the
    series is read off the sign of the (1,3)-corner coupling (negative for
    J, positive for K) and cross-checked against the excitation sector.
    """
    mat = operator.entries if isinstance(operator, ReducedOperator) else np.asarray(operator)
    if np.max(np.abs(mat.imag)) > 1e-10:
        raise ValueError("expected a real transformed operator")
    real = np.ascontiguousarray(mat.real)
    if np.max(np.abs(real - real.T)) > 1e-10:
        raise ValueError("expected a symmetric transformed operator")
    n = basis.n
    if real.shape != (reduced_dim(n), reduced_dim(n)):
        raise ValueError("operator and basis dimensions disagree")

    adjacency = csr_matrix(np.abs(real) > coupling_tol)
    count, assignment = connected_components(adjacency, directed=False)
    groups = [np.flatnonzero(assignment == c) for c in range(count)]

    if sorted(len(g) for g in groups) != _expected_sizes(n):
        raise BlockStructureError(
            f"component sizes {sorted(len(g) for g in groups)} do not match "
            f"the expected multiset {_expected_sizes(n)}"
        )

    blocks: list[ExtractedBlock] = []
    for group in groups:
        members = [(int(i), basis.labels[i]) for i in group]
        sectors = {lab.excitation for _, lab in members}
        if len(sectors) != 1:
            raise BlockStructureError(
                f"a component mixes excitation sectors {sorted(sectors)}"
            )
        sector = sectors.pop()
        series = "J" if sector <= n else "K"
        block_l = sector if series == "J" else 2 * n + 1 - sector
        if len(group) != 2 * block_l + 1:
            raise BlockStructureError(
                f"sector {sector} has size {len(group)}, expected {2 * block_l + 1}"
            )
        ordered = _canonical_order(members, series)
        idx = np.array([i for i, _ in ordered])
        sub = real[np.ix_(idx, idx)]
        if block_l >= 1:
            assigned = "J" if sub[0, 2] < 0 else "K"
            if assigned != series:
                raise BlockStructureError(
                    f"corner sign labels the sector-{sector} block {assigned}, "
                    f"but its excitation places it in series {series}"
                )
        blocks.append(
            ExtractedBlock(
                label=series,
                l=block_l,
                size=len(group),
                eigenvalues=np.linalg.eigvalsh(sub),
                matrix=sub,
                members=tuple(lab for _, lab in ordered),
            )
        )

    blocks.sort(key=lambda b: (b.label, b.l))
    return blocks


def _blocks_by_label(real: np.ndarray, basis: TransformedBasis) -> list[ExtractedBlock]:
    """Degenerate-parameter fallback: group by column labels alone."""
    n = basis.n
    by_sector: dict[int, list[tuple[int, ColumnLabel]]] = {}
    for i, lab in enumerate(basis.labels):
        by_sector.setdefault(lab.excitation, []).append((i, lab))
    blocks = []
    for sector, members in by_sector.items():
        series = "J" if sector <= n else "K"
        block_l = sector if series == "J" else 2 * n + 1 - sector
        ordered = _canonical_order(members, series)
        idx = np.array([i for i, _ in ordered])
        sub = real[np.ix_(idx, idx)]
        blocks.append(
            ExtractedBlock(
                label=series,
                l=block_l,
                size=len(members),
                eigenvalues=np.linalg.eigvalsh(sub),
                matrix=sub,
                members=tuple(lab for _, lab in ordered),
            )
        )
    blocks.sort(key=lambda b: (b.label, b.l))
    return blocks


def closed_form_extreme_eigenvalues(n: int, params: PovmParams) -> tuple[float, float]:
    """Least and greatest members of the shared extreme eigenvalue pair.

    The product c1 * c2 is formed first so that swapping the scales gives
    bit-identical results.
    """
    _check_copies(n)
    c1, c2 = params.c1, params.c2
    radicand = (
        c1**2 / 4
        + c2**2 / 4
        + (c1 * c2) * (n**2 - 2 * n - 1) / (2 * (n + 1) ** 2)
    )
    root = math.sqrt(max(radicand, 0.0))
    center = 1.0 - (c1 + c2) / 2
    return center - root, center + root


class PositivityResult(NamedTuple):
    numeric_min: float
    closed_form_min: float
    feasible: bool


def positivity_check(triple: PovmTriple) -> PositivityResult:
    """Compare the numerically least eigenvalue of the inconclusive operator
    with its closed form; feasible means nonnegative up to 1e-9."""
    eigenvalues = np.linalg.eigvalsh(triple.pi0.entries)
    numeric_min = float(eigenvalues[0])
    closed_min, _ = closed_form_extreme_eigenvalues(triple.n, triple.params)
    return PositivityResult(numeric_min, closed_min, numeric_min >= -1e-9)


def constraint_c2(c1: float, n: int) -> float:
    """Largest c2 keeping the inconclusive operator positive at given c1.

    Setting the least eigenvalue to zero and solving for c2 gives
    (1 - c1) / (1 - (2n+1) c1 / (n+1)^2), clamped to [0, 1].
    """
    _check_copies(n)
    if not 0.0 <= c1 <= 1.0 or math.isnan(c1):
        raise ValueError(f"c1 must lie in [0, 1], got {c1!r}")
    denominator = 1.0 - (2 * n + 1) * c1 / (n + 1) ** 2
    if denominator <= 0.0:
        raise ValueError(f"c1={c1} lies beyond the feasible arc for n={n}")
    return min(1.0, max(0.0, (1.0 - c1) / denominator))


@dataclass(frozen=True)
class BlockSpectrum:
    """Serializable summary of one diagonal block."""

    label: str
    l: int
    size: int
    eigenvalues: tuple[float, ...]


@dataclass(frozen=True)
class SpectrumReport:
    """Full spectral summary of the inconclusive operator at (n, c1, c2)."""

    n: int
    c1: float
    c2: float
    blocks: tuple[BlockSpectrum, ...]
    min_eigenvalue: float
    closed_form_min: float
    feasible: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "c1": self.c1,
            "c2": self.c2,
            "blocks": [
                {
                    "label": b.label,
                    "l": b.l,
                    "size": b.size,
                    "eigenvalues": list(b.eigenvalues),
                }
                for b in self.blocks
            ],
            "min_eigenvalue": self.min_eigenvalue,
            "closed_form_min": self.closed_form_min,
            "feasible": self.feasible,
        }


def spectrum_report(n: int, params: PovmParams) -> SpectrumReport:
    """Assemble the transformed operator, its blocks, and the positivity
    verdict into one report."""
    triple = build_povm(n, params)
    result = positivity_check(triple)
    basis = build_transform(n)
    transformed = transformed_pi0(triple, basis)
    if params.c2 >= _GENERIC_C2_MIN:
        extracted = extract_blocks(transformed, basis)
    else:
        extracted = _blocks_by_label(transformed.entries.real, basis)
    blocks = tuple(
        BlockSpectrum(
            label=b.label,
            l=b.l,
            size=b.size,
            eigenvalues=tuple(float(e) for e in b.eigenvalues),
        )
        for b in extracted
    )
    return SpectrumReport(
        n=n,
        c1=params.c1,
        c2=params.c2,
        blocks=blocks,
        min_eigenvalue=result.numeric_min,
        closed_form_min=result.closed_form_min,
        feasible=result.feasible,
    )
