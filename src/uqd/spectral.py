"""Block structure and positivity of the inconclusive operator.

Both conclusive elements commute with the total excitation number
s = l + m + t across the two program blocks and the tail, so the
inconclusive operator

    pi0 = (1 - c1 - c2) I + c1 P_even + c2 P_odd

splits into one block per sector.  Sectors 0..n give blocks of sizes
1, 3, ..., 2n+1 (the J series, l = s); sectors n+1..2n+1 mirror them (the K
series, l = 2n+1-s).  Ordered by q = 2l + t, the members (l, m, t) of a
sector form a chain in which each coupling comes from one of the two
nonzeros per row of `tail_split_vectors`, so every block is a real
tridiagonal matrix with

    diagonal at (l, m, t):    (1 - c1 - c2) + c1 a_E + c2 a_O,
        a_E = (n+1-m)/(n+1) if t = 0, else (m+1)/(n+1),
        a_O = (n+1-l)/(n+1) if t = 0, else (l+1)/(n+1);
    (l, m, 0) -- (l, m-1, 1):  c1 sqrt(m (n+1-m)) / (n+1);
    (l, m, 1) -- (l+1, m, 0):  c2 sqrt((l+1)(n-l)) / (n+1).

`sector_blocks` returns these blocks, O(n^3) memory for all of them.  The
dense route (`build_transform`, `transformed_pi0`, `extract_blocks`,
`positivity_check`) is kept as the small-n cross-check, on real float64
arrays: `positivity_check(build_povm(20, ...))` takes about 0.17 s on 2
cores, in a process that peaks at 97 MB RSS.

The whole spectrum has a closed form.  The principal cosines between range
P_E and range P_O are j/(n+1), j = 1..n, cosine j with multiplicity 2j
(`principal_cosines`; Jordan's lemma for two subspaces, as in Bergou,
Feldman & Hillery, PRA 73, 032107 (2006)), and the two ranges meet in the
2(n+1)-dimensional fully symmetric space.  So pi0 has the eigenvalue 1 with
multiplicity 2(n+1) and, for each j, the pair

    lambda_j+- = 1 - (c1 + c2)/2
                 +- sqrt(c1^2/4 + c2^2/4 + c1 c2 ((j/(n+1))^2 - 1/2)),

each with multiplicity 2j (`closed_form_spectrum`).  Block J_l, and K_l,
holds 1 and the pairs j = n+1-l..n, so the blocks nest and every block of
size >= 3 shares the extreme pair j = n,

    lambda_pm = 1 - (c1 + c2)/2
                +- sqrt(c1^2/4 + c2^2/4 + (n^2 - 2n - 1) c1 c2 / (2(n+1)^2)).

lambda_minus >= 0 is exactly the condition for (c1, c2) to describe a valid
measurement, and saturating it yields the constraint curve `constraint_c2`.

`spectrum_report` and `least_eigenvalues` do not rest on the formula alone.
Both count eigenvalues by an LDL^T (Sturm) inertia recurrence along every
sector chain at one scale pair (`_count_below`), which needs no eigen-solve
and no stored block.  `spectrum_report` takes every block's eigenvalues
from the closed form and certifies them: for each sector, the count inside
a bracket of +-FEASIBLE_TOL around each cluster of predicted values must
equal the sector's predicted multiplicity, else RuntimeError.  That is at
most 4n+2 shifts at O(n^2) each, O(n^3) in all, against O(n^4) for an
eigen-solve of the blocks.  `least_eigenvalues` answers only the
feasibility question, for many scale pairs at once: it takes lambda_minus
from the closed form and certifies it once per call.  One O(n^2) pass
checks that the chain entries at the scales (1, 0) and (0, 1) are
projectors E and O, one inertia count at (1, 1), where pi0 = E + O - I,
bounds every Jordan cosine by n/(n+1), and at each pair two inertia counts
of the 3x3 blocks J_1 and K_1 must put the least eigenvalue of both within
3 FEASIBLE_TOL/4 of lambda_minus.  That costs O(n^2) per call and O(1) per
pair, with no eigen-solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .povm import PovmParams, PovmTriple
from .symmetric import (
    ReducedOperator,
    _check_copies,
    _check_unit,
    reduced_dim,
    tail_split_vectors,
)

# Couplings below this magnitude count as structural zeros when the block
# layout is confirmed from the matrix.
COUPLING_TOL = 1e-9

# The inconclusive operator counts as positive when its least eigenvalue is
# at least -FEASIBLE_TOL.
FEASIBLE_TOL = 1e-9

# All sector blocks together hold 2(n+1)(2n+1)(2n+3)/3 doubles, 1.4 GB at
# n = 400.  The certificate of `spectrum_report` grows as n^3: at n = 400 it
# takes 2.1 s in a process that peaks at 59 MB RSS (2 cores; the eigen-solve
# of every block took 9.7 s and 100 MB).  That of `least_eigenvalues` grows
# as n^2 per call: a one-pair call takes about 52 ms at n = 400 and 5.1 ms at
# n = 100 (2 cores, first call in a fresh process), and the 1722 pairs of a
# 41x41 scan and its curve add about 0.2-0.4 ms to a call at n <= 100.
# Larger sizes are refused before anything is allocated.
SECTOR_N_MAX = 400


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
    Column groups: eta m = 1..n, chi m = 1..n, eta 0, eta n+1, each by l, m.
    """
    splits = tail_split_vectors(n)
    m = np.arange(1, n + 1)
    chi = np.zeros((n, 2 * (n + 1)))
    chi[m - 1, 2 * m] = np.sqrt(m / (n + 1))
    chi[m - 1, 2 * m - 1] = -np.sqrt((n + 1 - m) / (n + 1))
    groups = (
        ("eta", splits[1 : n + 1], range(1, n + 1)),
        ("chi", chi, range(1, n + 1)),
        ("eta", splits[:1], (0,)),
        ("eta", splits[n + 1 :], (n + 1,)),
    )
    # each group repeats its pair vectors once per odd label l
    vectors = np.hstack([np.kron(np.eye(n + 1), rows.T) for _, rows, _ in groups])
    labels = tuple(
        ColumnLabel(kind, l, k)
        for kind, _, ms in groups
        for l in range(n + 1)
        for k in ms
    )
    return TransformedBasis(n, vectors, labels)


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


def _canonical_order(members: list[tuple[int, ColumnLabel]], series: str):
    # Within a block: ascending tail-pair excitation for the J series,
    # descending for K, symmetric ("eta") column before its partner.
    def key(item: tuple[int, ColumnLabel]):
        lab = item[1]
        m = lab.m if series == "J" else -lab.m
        return (m, 0 if lab.kind == "eta" else 1)

    return sorted(members, key=key)


def _connected(adjacency: np.ndarray) -> bool:
    """Whether every node of a coupling graph is reachable from the first."""
    reached = np.zeros(len(adjacency), dtype=bool)
    reached[0] = True
    while True:
        grown = reached | adjacency[reached].any(axis=0)
        if np.array_equal(grown, reached):
            return bool(reached.all())
        reached = grown


def extract_blocks(
    operator: ReducedOperator | np.ndarray, basis: TransformedBasis
) -> list[ExtractedBlock]:
    """Split the real transformed inconclusive operator into its sector
    blocks; a complex array is refused.

    Columns are grouped by their excitation sector l + m, and the matrix must
    confirm the grouping: no entry above `COUPLING_TOL` may couple two
    sectors, and the couplings inside each sector must connect all of its
    columns.  The column labels supply each block's canonical internal
    ordering, in which the series is read off the sign of the (1,3)-corner
    coupling (negative for J, positive for K) and cross-checked against the
    excitation sector.
    """
    mat = operator.entries if isinstance(operator, ReducedOperator) else np.asarray(operator)
    if np.iscomplexobj(mat):
        raise ValueError("expected a real transformed operator")
    if np.max(np.abs(mat - mat.T)) > 1e-10:
        raise ValueError("expected a symmetric transformed operator")
    n = basis.n
    if mat.shape != (reduced_dim(n), reduced_dim(n)):
        raise ValueError("operator and basis dimensions disagree")

    couples = np.abs(mat) > COUPLING_TOL
    sectors = np.array([lab.excitation for lab in basis.labels])
    crossing = np.argwhere(couples & (sectors[:, None] != sectors[None, :]))
    if len(crossing):
        i, j = crossing[0]
        raise BlockStructureError(
            f"columns {i} and {j} couple sectors {sectors[i]} and {sectors[j]}"
        )

    blocks: list[ExtractedBlock] = []
    for sector in range(2 * n + 2):
        members = [(int(i), basis.labels[i]) for i in np.flatnonzero(sectors == sector)]
        series = "J" if sector <= n else "K"
        block_l = sector if series == "J" else 2 * n + 1 - sector
        ordered = _canonical_order(members, series)
        idx = np.array([i for i, _ in ordered])
        if not _connected(couples[np.ix_(idx, idx)]):
            raise BlockStructureError(
                f"the couplings of sector {sector} do not connect its "
                f"{len(idx)} columns"
            )
        sub = mat[np.ix_(idx, idx)]
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
                size=len(idx),
                eigenvalues=np.linalg.eigvalsh(sub),
                matrix=sub,
                members=tuple(lab for _, lab in ordered),
            )
        )

    blocks.sort(key=lambda b: (b.label, b.l))
    return blocks


def _check_sector_size(n: int) -> int:
    n = _check_copies(n)
    if n > SECTOR_N_MAX:
        raise ValueError(f"sector blocks are capped at n <= {SECTOR_N_MAX}, got {n}")
    return n


def _members(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Members (l, m, t) of every sector s = 0..2n+1, sector after sector and
    ordered by q = 2l + t within each, and the bounds of the sectors in that
    order (sector s is members bounds[s]:bounds[s+1]).

    Sector s holds 2 min(s, 2n+1-s) + 1 members whose q run without gaps
    from max(0, 2(s-n) - 1), so the order is laid out directly, not sorted.
    """
    sectors = np.arange(2 * n + 2)
    sizes = 2 * np.minimum(sectors, 2 * n + 1 - sectors) + 1
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    q = np.arange(bounds[-1]) + np.repeat(np.maximum(0, 2 * (sectors - n) - 1) - bounds[:-1], sizes)
    l, t = q >> 1, q & 1
    return l, np.repeat(sectors, sizes) - l - t, t, bounds


def _chain_entries(n: int, l, m, t, c1, c2, base):
    """Diagonal entry at member (l, m, t) and its link to the next member of
    the sector, from the closed forms in the module docstring.  base is the
    multiple of I, 1 - c1 - c2 in pi0; with base 0 the scales (1, 0) and
    (0, 1) give P_even and P_odd alone.  Members and scales broadcast
    against each other.  The last member of a sector links to nothing and
    gets exactly 0, so the members in `_members` order form one chain that
    falls apart into the sector blocks.
    """
    a_even = np.where(t == 0, n + 1 - m, m + 1)
    a_odd = np.where(t == 0, n + 1 - l, l + 1)
    diagonal = base + (c1 * a_even + c2 * a_odd) / (n + 1)
    # from t = 0 the tail takes an excitation from the even block (c1),
    # from t = 1 it hands one to the odd block (c2)
    link = np.where(
        t == 0,
        c1 * np.sqrt(m * (n + 1 - m)),
        c2 * np.sqrt((l + 1) * (n - l)),
    ) / (n + 1)
    return diagonal, link


def _sector_block(diagonal: np.ndarray, link: np.ndarray, bounds: np.ndarray, s: int) -> np.ndarray:
    start, stop = bounds[s], bounds[s + 1]
    size = stop - start
    block = np.zeros((size, size))
    block.flat[:: size + 1] = diagonal[start:stop]
    block.flat[1 :: size + 1] = link[start : stop - 1]
    block.flat[size :: size + 1] = link[start : stop - 1]
    return block


def sector_blocks(n: int, params: PovmParams) -> tuple[np.ndarray, ...]:
    """The real tridiagonal blocks of the inconclusive operator, one per
    excitation sector s = 0..2n+1, members ordered by q = 2l + t.

    Entries follow the closed forms in the module docstring; no dense
    reduced-basis operator is formed.  All 2n+2 blocks are held at once,
    O(n^3) memory; `spectrum_report` and `least_eigenvalues` build none.
    n is capped at SECTOR_N_MAX.
    """
    n = _check_sector_size(n)
    *members, bounds = _members(n)
    c1, c2 = params.c1, params.c2
    diagonal, link = _chain_entries(n, *members, c1, c2, 1.0 - c1 - c2)
    return tuple(_sector_block(diagonal, link, bounds, s) for s in range(2 * n + 2))


class PrincipalCosines(NamedTuple):
    """Principal cosines between range P_E and range P_O as exact rationals:
    cosine numerators[i] / denominator with multiplicity multiplicities[i]."""

    numerators: np.ndarray
    denominator: int
    multiplicities: np.ndarray


def principal_cosines(n: int) -> PrincipalCosines:
    """The cosines j/(n+1), j = 1..n, of the two-dimensional Jordan blocks
    of P_E and P_O, cosine j with multiplicity 2j.

    Indexed by the total spin J = j - 1/2 of a block pair, the cosine is
    (J + 1/2)/(n+1) and its multiplicity 2J + 1: the equal-register case
    of cos^2_J = ((J + 1/2)^2 - ((n1 - n2)/2)^2) / ((n1+1)(n2+1)).  The
    ranges also meet in the 2(n+1)-dimensional fully symmetric space,
    J = n + 1/2, where the cosine is 1 and pi0 is the identity.
    """
    n = _check_copies(n)
    j = np.arange(1, n + 1)
    return PrincipalCosines(j, n + 1, 2 * j)


def _pair_radicand(j, d, c1, c2):
    """Radicand of the eigenvalue pair of pi0 on a Jordan block of cosine
    j/d, c1^2/4 + c2^2/4 + c1 c2 (j^2/d^2 - 1/2), with the integer numerator
    2j^2 - d^2 kept exact.  The product c1 * c2 is formed first so that
    swapping the scales gives bit-identical results.  j and d are ints or
    integer arrays, and c1 and c2 floats or float arrays."""
    return c1**2 / 4 + c2**2 / 4 + (c1 * c2) * (2 * j**2 - d**2) / (2 * d**2)


def _pair_eigenvalues(j, d, c1, c2):
    """The eigenvalue pair (lambda_j-, lambda_j+) of pi0 on a Jordan block of
    cosine j/d, 1 - (c1 + c2)/2 -+ sqrt(`_pair_radicand`).  The cosine or the
    scales may be arrays."""
    root = np.sqrt(np.maximum(_pair_radicand(j, d, c1, c2), 0.0))
    center = 1.0 - (c1 + c2) / 2
    return center - root, center + root


def closed_form_spectrum(n: int, params: PovmParams) -> tuple[np.ndarray, np.ndarray]:
    """Every distinct eigenvalue of the inconclusive operator and its
    multiplicity, from the principal cosines.

    On the Jordan block of cosine j/(n+1) pi0 has the pair
    lambda_j+- = 1 - (c1+c2)/2 +- sqrt(c1^2/4 + c2^2/4 + c1 c2 ((j/(n+1))^2 - 1/2)),
    each with multiplicity 2j; on the fully symmetric space it is 1, with
    multiplicity 2(n+1).  Returns (eigenvalues, multiplicities), ordered
    lambda_1- .. lambda_n-, lambda_1+ .. lambda_n+, 1.  O(n) values; the
    multiplicities sum to 2(n+1)^2.
    """
    cosines = principal_cosines(n)
    low, high = _pair_eigenvalues(cosines.numerators, cosines.denominator, params.c1, params.c2)
    eigenvalues = np.concatenate((low, high, [1.0]))
    mult = cosines.multiplicities
    return eigenvalues, np.concatenate((mult, mult, [2 * cosines.denominator]))


def closed_form_extreme_eigenvalues(n: int, params: PovmParams) -> tuple[float, float]:
    """Least and greatest members of the shared extreme eigenvalue pair, the
    j = n pair of `closed_form_spectrum`, at O(1) cost for any n."""
    n = _check_copies(n)
    low, high = _pair_eigenvalues(n, n + 1, params.c1, params.c2)
    return float(low), float(high)


class PositivityResult(NamedTuple):
    numeric_min: float
    closed_form_min: float
    feasible: bool


def positivity_check(triple: PovmTriple) -> PositivityResult:
    """Dense small-n cross-check of positivity: the least eigenvalue of the
    whole inconclusive operator next to its closed form; feasible means
    nonnegative up to FEASIBLE_TOL.  `spectrum_report` reaches the same
    verdict from the sector blocks."""
    eigenvalues = np.linalg.eigvalsh(triple.pi0.entries)
    numeric_min = float(eigenvalues[0])
    closed_min, _ = closed_form_extreme_eigenvalues(triple.n, triple.params)
    return PositivityResult(numeric_min, closed_min, numeric_min >= -FEASIBLE_TOL)


def constraint_c2(c1: float, n: int) -> float:
    """Largest c2 keeping the inconclusive operator positive at given c1.

    Setting the least eigenvalue to zero and solving for c2 gives
    (1 - c1) / (1 - (2n+1) c1 / (n+1)^2), clamped to [0, 1].  The
    denominator is positive because c1 <= 1 and (2n+1) < (n+1)^2.
    """
    n = _check_copies(n)
    c1 = _check_unit("c1", c1)
    denominator = 1.0 - (2 * n + 1) * c1 / (n + 1) ** 2
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
    """Eigenvalues of every sector block and the positivity verdict.

    The eigenvalues come from `closed_form_spectrum`: J_l and K_l (sectors l
    and 2n+1-l) both hold 1 and the pairs j = n+1-l..n, which in the sorted
    spectrum are its l least and l + 1 greatest values.  `_certify_spectrum`
    then checks them against the sector chains by inertia counts, so the
    report does not rest on the formula: O(n^3) time and O(n^2) memory,
    with no block formed and no eigen-solve.  The least eigenvalue is the
    least over all blocks.
    """
    n = _check_sector_size(n)
    c1, c2 = params.c1, params.c2
    eigenvalues, _ = closed_form_spectrum(n, params)
    row = np.sort(eigenvalues)
    _certify_spectrum(n, c1, c2, row)
    values = row.tolist()
    spectra = [tuple(values[:l] + values[2 * n - l :]) for l in range(n + 1)]
    blocks = tuple(
        BlockSpectrum(label, l, 2 * l + 1, spectra[l]) for label in "JK" for l in range(n + 1)
    )
    closed_min, _ = closed_form_extreme_eigenvalues(n, params)
    return SpectrumReport(
        n=n,
        c1=c1,
        c2=c2,
        blocks=blocks,
        min_eigenvalue=values[0],
        closed_form_min=closed_min,
        feasible=values[0] >= -FEASIBLE_TOL,
    )


def _certify_spectrum(n: int, c1: float, c2: float, row: np.ndarray) -> None:
    """Check the sorted closed-form spectrum `row` against every sector chain.

    Values closer than 2 FEASIBLE_TOL merge into one cluster, bracketed by
    [least - FEASIBLE_TOL, greatest + FEASIBLE_TOL); the brackets are
    disjoint and every shift lies at least FEASIBLE_TOL from every value.
    At both ends of every bracket, the inertia count of each sector must
    equal the number of its block's values below that shift, so each
    bracket holds as many eigenvalues of the sector as the closed form puts
    in the cluster, and none lies outside the brackets.  At most 4n+2
    shifts at O(n^2) each.  Raises RuntimeError on the first mismatch.
    """
    split = np.diff(row) >= 2 * FEASIBLE_TOL
    least = row[np.concatenate(([True], split))]
    greatest = row[np.concatenate((split, [True]))]
    shifts = np.concatenate((least - FEASIBLE_TOL, greatest + FEASIBLE_TOL))
    below = _count_below(n, c1, c2, shifts)
    # block l holds the l least and the l + 1 greatest values of the row
    rank = np.searchsorted(row, shifts).astype(np.int32)
    sector = np.arange(2 * n + 2, dtype=np.int32)[:, None]
    block = np.minimum(sector, 2 * n + 1 - sector)
    predicted = np.minimum(rank, block) + np.maximum(rank - (2 * n - block), 0)
    wrong = below != predicted
    if wrong.any():
        s, k = np.argwhere(wrong)[0]
        raise RuntimeError(
            f"spectrum certificate failed at n={n}, (c1, c2) = ({c1!r}, {c2!r}): "
            f"sector {s} has {below[s, k]} eigenvalues below {shifts[k]!r}, "
            f"the closed form {predicted[s, k]}"
        )


# doubles per (sector, shift) working array of the inertia count: the shifts
# are taken in batches of _COUNT_DOUBLES // (2n+2), so memory stays O(shifts)
# and the dozen such arrays of one step stay in a few-MB cache
_COUNT_DOUBLES = 2**16


def _count_below(n: int, c1: float, c2: float, shift: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each shift in every sector s = 0..2n+1 at
    the scales (c1, c2), as a (sector, shift) int32 array.

    By Sylvester's law of inertia, the negative pivots of the LDL^T
    factorization of a tridiagonal T - shift I count the eigenvalues of T
    below the shift.  The chain entries are formed once, for every member;
    the recurrence d_k = (a_k - shift) - b_{k-1}^2 / d_{k-1} then runs over
    every sector at once, one chain position at a time, on (sector, shift)
    arrays: 2n+1 steps.  Sectors s and 2n+1-s have 2s+1 members for s <= n,
    so those with a member at position i are the contiguous range
    (i+1)//2 .. 2n+1-(i+1)//2.  An exact zero pivot is replaced by the
    smallest normal float.
    """
    l, m, t, bounds = _members(n)
    sectors = 2 * n + 2
    batch = max(1, _COUNT_DOUBLES // sectors)
    below = np.zeros((sectors, len(shift)), dtype=np.int32)
    tiny = np.finfo(float).tiny
    diagonals, links = _chain_entries(n, l, m, t, c1, c2, 1.0 - c1 - c2)
    links **= 2
    for start in range(0, len(shift), batch):
        points = slice(start, start + batch)
        sigma = shift[points]
        pivot, squared = np.ones((sectors, len(sigma))), np.zeros((sectors, 1))
        for i in range(2 * n + 1):
            lo = (i + 1) // 2
            chain = bounds[lo : sectors - lo, None] + i
            # after an even position the two end sectors of the range run out
            kept = slice(i % 2, len(pivot) - i % 2)
            pivot = squared[kept] / pivot[kept]
            pivot += sigma
            np.subtract(diagonals[chain], pivot, out=pivot)
            pivot[pivot == 0.0] = tiny
            below[lo : sectors - lo, points] += pivot < 0.0
            squared = links[chain]
    return below


def _end_block_counts(n: int, c1: np.ndarray, c2: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Number of eigenvalues of J_1 and K_1 (sectors 1 and 2n) below each
    shift, as a (2, shifts, pairs) int32 array, J_1 first.  c1 and c2 are
    1-D arrays of scale pairs and shift[k, i] is the k-th shift at pair i.

    The three members of both blocks broadcast against the scales in one
    `_chain_entries` call, and the recurrence of `_count_below` takes its
    three steps on both blocks and every shift at once, so no block is
    formed and no eigen-solve made.  An exact zero pivot is replaced by the
    smallest normal float.
    """
    # members (l, m, t) of J_1 and K_1 in `_members` order, against the scales
    l = np.array([[0, 0, 1], [n - 1, n, n]])[..., None]
    m = np.array([[1, 0, 0], [n, n, n - 1]])[..., None]
    t = np.array([[0, 1, 0], [1, 0, 1]])[..., None]
    diagonal, link = _chain_entries(n, l, m, t, c1, c2, 1.0 - c1 - c2)
    below = np.zeros((2, *shift.shape), dtype=np.int32)
    tiny = np.finfo(float).tiny
    pivot, squared = 1.0, 0.0
    for i in range(3):
        pivot = (diagonal[:, i, None] - shift) - squared / pivot
        pivot[pivot == 0.0] = tiny
        below += pivot < 0.0
        squared = link[:, i, None] ** 2
    return below


def _projector_defect(n: int) -> float:
    """Largest departure of E and O from orthogonal projectors, where E and
    O are the chain entries at the scales (1, 0) and (0, 1) with base 0.

    In `_members` order the successor of (l, m, 0) is (l, m-1, 1) and that
    of (l, m, 1) is (l+1, m, 0).  E links only pairs of the first kind and O
    only pairs of the second, so each is a direct sum of 2x2 blocks
    [[a, b], [b, d]] and 1x1 blocks, and it is a projector when every 2x2
    block has a + d = 1 and ad = b^2, every 1x1 block is 0 or 1, and every
    other link is 0.  The members broadcast from one axis each, so no member
    list is formed or sorted.  NaN entries give NaN.
    """
    # t outermost: a short innermost axis would make every broadcast slow
    t, l, m = np.arange(2)[:, None, None], np.arange(n + 1)[:, None], np.arange(n + 1)
    defects = []
    for c1, c2, first, second in (
        (1.0, 0.0, np.s_[0, :, 1:], np.s_[1, :, :-1]),
        (0.0, 1.0, np.s_[1, :-1, :], np.s_[0, 1:, :]),
    ):
        diagonal, link = _chain_entries(n, l, m, t, c1, c2, 0.0)
        a, d, b = diagonal[first], diagonal[second], link[first]
        alone, unlinked = np.ones((2, *diagonal.shape), dtype=bool)
        alone[first] = alone[second] = unlinked[first] = False
        single = diagonal[alone]
        defects += [a + d - 1, a * d - b**2, np.minimum(single, 1 - single), link[unlinked]]
    return float(np.max([np.max(np.abs(defect)) for defect in defects]))


def least_eigenvalues(n: int, c1, c2) -> tuple[np.ndarray, np.ndarray]:
    """Least eigenvalue of the inconclusive operator and the feasibility
    verdict at many scale pairs (c1[i], c2[i]) at once.

    The minimum is lambda_n-, the least value of the closed form and the
    `min_eigenvalue` of `spectrum_report`, certified once per call against
    the sector chains, so that at no pair does the least eigenvalue lie more
    than FEASIBLE_TOL from it.  With delta = FEASIBLE_TOL/256:

    1. E and O are projectors.  Every sector chain is
       (1 - c1 - c2) I + c1 E + c2 O by construction of `_chain_entries`,
       with E and O its entries at the scales (1, 0) and (0, 1).
       `_projector_defect` must be at most delta.  A 2x2 block with
       |a + d - 1| <= delta and |ad - b^2| <= delta has its eigenvalues
       within 2.01 delta of 0 and 1, and the other links add at most
       2 delta in norm, so E and O lie within 5 delta of projectors E' and
       O', and the chain at any (c1, c2) within 5 delta (c1 + c2) <= 10 delta
       of (1 - c1 - c2) I + c1 E' + c2 O'.
    2. No Jordan cosine above n/(n+1).  By Jordan's lemma E' and O' split
       the space into 2-dimensional blocks, on which they are rank-one
       projectors at cosine gamma, and 1-dimensional pieces, on which each
       is 0 or 1.  At (1, 1) pi0 = E' + O' - I has the eigenvalues +-gamma
       on a block and -1 on a piece where E' = O' = 0.  One inertia count
       of the chain at (1, 1) must find no eigenvalue below
       -n/(n+1) - FEASIBLE_TOL/8.  So every gamma is at most
       n/(n+1) + FEASIBLE_TOL/8 + 10 delta, and no piece has E' = O' = 0.
    3. J_1 and K_1 reach the closed form.  On a block of cosine gamma pi0
       has the least eigenvalue
       lambda_-(gamma) = 1 - (c1+c2)/2 - sqrt((c1-c2)^2/4 + c1 c2 gamma^2),
       which falls as gamma grows, with slope at most sqrt(c1 c2) <= 1.  The
       other pieces give 1, 1 - c1 or 1 - c2, none below
       lambda_-(0) = 1 - max(c1, c2).  With steps 1 and 2, no eigenvalue of
       the chain lies below lambda_n- - FEASIBLE_TOL/8 - 20 delta, where
       lambda_n- = lambda_-(n/(n+1)) (`_pair_eigenvalues`).  At every pair,
       inertia counts of J_1 and K_1 (`_end_block_counts`) must find no
       eigenvalue below lambda_n- - 3 FEASIBLE_TOL/4 and at least one below
       lambda_n- + 3 FEASIBLE_TOL/4, so the least eigenvalue of each block
       lies within 3 FEASIBLE_TOL/4 of lambda_n-.  The counted blocks come
       from the chain entries alone, not from the formula.  So the least
       eigenvalue of pi0 lies between lambda_n- - (1/8 + 20/256)
       FEASIBLE_TOL and lambda_n- + 3 FEASIBLE_TOL/4; the rest of
       FEASIBLE_TOL covers rounding.

    Steps 1 and 2 cost O(n^2) once per call and step 3 O(1) per pair; no
    spectrum, dense operator or stored block is formed and no eigen-solve
    made.  Returns (lambda_n-, feasible) as arrays, feasible meaning
    lambda_n- >= -FEASIBLE_TOL; raises RuntimeError if a check fails or
    reads NaN.
    """
    n = _check_sector_size(n)
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    if c1.ndim != 1 or c1.shape != c2.shape:
        raise ValueError(
            f"c1 and c2 must be 1-D arrays of equal length, got shapes {c1.shape} and {c2.shape}"
        )
    for name, scales in (("c1", c1), ("c2", c2)):
        outside = ~((scales >= 0.0) & (scales <= 1.0))
        if outside.any():
            raise ValueError(f"{name} must lie in [0, 1], got {float(scales[outside][0])!r}")
    failed = f"least-eigenvalue certificate failed at n={n}"
    defect = _projector_defect(n)
    if not defect <= FEASIBLE_TOL / 256:
        raise RuntimeError(f"{failed}: E and O depart from projectors by {defect!r}")
    edge = -n / (n + 1) - FEASIBLE_TOL / 8
    beyond = int(_count_below(n, 1.0, 1.0, np.array([edge])).sum())
    if beyond:
        raise RuntimeError(
            f"{failed}: pi0 at (1, 1) has {beyond} eigenvalues below {edge!r}, "
            f"so a Jordan cosine exceeds {n}/{n + 1}"
        )
    least, _ = _pair_eigenvalues(n, n + 1, c1, c2)
    margin = 3 * FEASIBLE_TOL / 4
    below = _end_block_counts(n, c1, c2, least + np.array([[-margin], [margin]]))
    far = (below[:, 0] != 0) | (below[:, 1] == 0)
    if far.any():
        i = int(np.flatnonzero(far.any(axis=0))[0])
        block = int(not far[0, i])
        value = float(least[i])
        raise RuntimeError(
            f"{failed}, (c1, c2) = ({float(c1[i])!r}, {float(c2[i])!r}): "
            f"{('J_1', 'K_1')[block]} has {below[block, 0, i]} eigenvalues below "
            f"{value - margin!r} and {below[block, 1, i]} below {value + margin!r}, so its "
            f"least eigenvalue lies more than {margin:g} from the closed form {value!r}"
        )
    return least, least >= -FEASIBLE_TOL
