"""Deciding when one shared pure state can be turned into another.

For two parties the question is settled by majorization of the Schmidt
spectra. For three or more, partial entropies give a sharp dichotomy on
marginally isentropic pairs: they are either interconvertible (and then
related by local unitaries) or incomparable, with no one-way reductions.
The classifier walks that tree and certifies from local-unitary invariants:
the partial entropies, the spectra of every cut, the marginals' eigenframes
(which decide LU equivalence either way where every one-party marginal is
nondegenerate), the spectra of every partially transposed two-party
reduction, and last m-orthogonality.
"""
from __future__ import annotations

import enum
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .builders import cat_power, eprs_complete
from .entropy import _EIGENVALUE_FLOOR, _ISENTROPY_TOL, EntropyVector, _spectra_and_entropies
from .errors import InternalError
from .linalg import _unchecked_eigenvalues, hermitian_eigensystem
from .schmidt import _decide_m_orthogonal
from .states import Partition, PureState, party_letters, reduced_gram

__all__ = [
    "majorizes",
    "ComparisonVerdict",
    "Classification",
    "classify_states",
    "GhzEprWitness",
    "ghz_epr_witness",
]

_MAJORIZATION_TOL = 1e-10
_SPECTRUM_TOL = 1e-8
# `_lu_align` trusts an amplitude in marginal eigenframes to _FRAME_TOL / gap,
# gap the least eigenvalue spacing of a marginal (Davis-Kahan: a frame vector
# moves by |E| / gap for an error E far below 1e-8); the phase of an amplitude b
# to 5 _FRAME_TOL / (gap |b|) (arcsin), and k . phases to sum |k_i| times that.
_FRAME_TOL = 1e-8
_LU_FIDELITY_TOL = 1e-9
# a partial transpose has no cheaper side to diagonalize, so pairs of
# parties whose joint dimension d_i * d_j exceeds this are left out
_PAIR_TRANSPOSE_DIM_LIMIT = 256


def majorizes(q: Sequence[float], p: Sequence[float]) -> bool:
    """Whether distribution q majorizes p (prefix sums of q dominate, within 1e-10).

    Inputs are padded to a common length and sorted descending; both must
    sum to 1 within 1e-8.
    """
    qs = sorted((float(x) for x in q), reverse=True)
    ps = sorted((float(x) for x in p), reverse=True)
    if not (abs(sum(qs) - 1.0) <= 1e-8 and abs(sum(ps) - 1.0) <= 1e-8):  # NaN fails this test
        raise ValueError("majorization needs normalized distributions")
    n = max(len(qs), len(ps))
    qs += [0.0] * (n - len(qs))
    ps += [0.0] * (n - len(ps))
    return bool(np.all(np.cumsum(qs) >= np.cumsum(ps) - _MAJORIZATION_TOL))


class ComparisonVerdict(enum.Enum):
    LU_EQUIVALENT = "LUEquivalent"
    REDUCIBLE_A_TO_B = "ReducibleAToB"
    REDUCIBLE_B_TO_A = "ReducibleBToA"
    INCOMPARABLE = "Incomparable"
    INCOMPARABLE_BY_DICHOTOMY = "IncomparableByDichotomy"
    UNKNOWN = "Unknown"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Classification:
    verdict: ComparisonVerdict
    reason: str
    witness_partition: Partition | None = None
    details: dict = field(default_factory=dict)

    def __str__(self) -> str:
        parts = [str(self.verdict), self.reason]
        if self.witness_partition is not None:
            parts.append(f"witness partition {self.witness_partition.label}")
        return "; ".join(parts)


def _classify_bipartite(
    spectra_a: dict[Partition, Fraction | np.ndarray],
    spectra_b: dict[Partition, Fraction | np.ndarray],
) -> Classification:
    """The two-party verdict from each state's `cut_spectra`.

    Spectra equal within 1e-8 are LU-equivalent; otherwise the verdict is
    one-way majorization within 1e-10 (mutual majorization at that
    tolerance already implies equality within 1e-8).
    """
    if _partition_spectra_match(spectra_a, spectra_b) is None:
        return Classification(
            ComparisonVerdict.LU_EQUIVALENT,
            "equal Schmidt spectra, interconvertible both ways",
        )
    (sa,) = map(_as_eigenvalues, spectra_a.values())
    (sb,) = map(_as_eigenvalues, spectra_b.values())
    if majorizes(sb, sa):
        return Classification(
            ComparisonVerdict.REDUCIBLE_A_TO_B,
            "target spectrum majorizes the source spectrum",
        )
    if majorizes(sa, sb):
        return Classification(
            ComparisonVerdict.REDUCIBLE_B_TO_A,
            "source spectrum majorizes the target spectrum",
        )
    return Classification(
        ComparisonVerdict.INCOMPARABLE,
        "neither Schmidt spectrum majorizes the other",
    )


def _as_eigenvalues(value: Fraction | np.ndarray) -> np.ndarray:
    """A cut spectrum as eigenvalues; an exact entropy s stands for 2^s equal ones."""
    if isinstance(value, Fraction):
        rank = 1 << int(value)
        return np.full(rank, 1.0 / rank)
    return np.maximum(value, 0.0)


def _partition_spectra_match(
    spectra_a: dict[Partition, Fraction | np.ndarray],
    spectra_b: dict[Partition, Fraction | np.ndarray],
) -> Partition | None:
    """First canonical partition whose marginal spectra differ, if any."""
    for part, value in spectra_a.items():
        if _spectra_differ(_as_eigenvalues(value), _as_eigenvalues(spectra_b[part])):
            return part
    return None


def _spectra_differ(ea: np.ndarray, eb: np.ndarray) -> bool:
    """Whether two spectra, each sorted descending, differ by more than 1e-8
    in some entry. Spectra of different lengths are padded with zeros to a
    common length and sorted again, since a partial transpose can have
    negative eigenvalues."""
    if len(ea) != len(eb):
        n = max(len(ea), len(eb))
        ea, eb = (np.sort(np.concatenate([e, np.zeros(n - len(e))])) for e in (ea, eb))
    return bool(np.abs(ea - eb).max() > _SPECTRUM_TOL)


def _pair_transpose_spectra(state: PureState) -> dict[tuple[int, int], np.ndarray]:
    """The spectrum of rho_XY^{T_Y}, sorted descending, for every pair of
    parties X < Y with d_X * d_Y at most 256.

    Each is a local-unitary invariant: (U x V) rho (U x V)^dag partially
    transposes to (U x conj(V)) rho^{T_Y} (U x conj(V))^dag. Reductions of
    one size share one eigensolver call, unchecked: the partial transpose of
    a Hermitian matrix is Hermitian, and a `PureState` has finite amplitudes.
    """
    by_size: dict[int, list] = {}
    for x, y in itertools.combinations(range(state.num_parties), 2):
        dx, dy = state.dims[x], state.dims[y]
        if dx * dy > _PAIR_TRANSPOSE_DIM_LIMIT:
            continue
        rho = reduced_gram(state, (x, y)).reshape(dx, dy, dx, dy)
        by_size.setdefault(dx * dy, []).append(((x, y), rho.transpose(0, 3, 2, 1).reshape(dx * dy, -1)))
    spectra = {}
    for entries in by_size.values():
        pairs, mats = zip(*entries)
        spectra.update(zip(pairs, _unchecked_eigenvalues(np.array(mats))))
    return spectra


def _turned_amplitudes(state: PureState, mats: Sequence[np.ndarray]) -> np.ndarray:
    """The amplitudes of `state` with party p turned by mats[p]."""
    t = state.amplitudes
    for mat in mats:  # each product turns the leading party and moves it last
        t = (mat @ t.reshape(len(mat), -1)).T
    return t.reshape(-1)


def _lu_align(a: PureState, b: PureState) -> Classification | None:
    """Decide local-unitary equivalence when every one-party marginal is
    nondegenerate: `LU_EQUIVALENT` with unitaries carrying b onto a, or
    `INCOMPARABLE` with a certificate. Such unitaries map each marginal
    eigenbasis of b onto a's up to a phase per vector (Kraus, PRL 104,
    020504): in these frames the magnitudes agree, and phases theta_p solve
    theta_1[i_1] + ... + theta_m[i_m] = arg(a_i / b_i) over the support, or
    an integer k with k^T A = 0 (A the equations' incidence matrix) and
    k . arg(a / b) off 2 pi Z certifies that none do. The phases are peeled
    from m - 1 gauge pins; a phase the support leaves free (as for W) is
    pinned as a search step, after which a mismatch is no certificate. None
    for other dims, a marginal gap below 1e-8, or a mismatch within the
    tolerances at `_FRAME_TOL`."""
    if a.dims != b.dims:
        return None
    dims, both = a.dims, np.stack([a.as_tensor(), b.as_tensor()])
    frames, gap = [None] * len(dims), math.inf  # per party, A's frame and B's
    for d in set(dims):  # one eigensolver call per party dimension
        parties = [p for p, size in enumerate(dims) if size == d]
        grams = [reduced_gram(both, [p]) for p in parties]
        values, vectors = hermitian_eigensystem(np.concatenate(grams))
        gap = min(gap, float(np.min(values[:, :-1] - values[:, 1:], initial=math.inf)))
        for i, p in enumerate(parties):
            frames[p] = vectors[2 * i : 2 * i + 2]
    if gap < _SPECTRUM_TOL:
        return None
    tol = _FRAME_TOL / gap
    ca, cb = (_turned_amplitudes(s, [f[i].conj().T for f in frames]) for i, s in enumerate((a, b)))
    defect = np.abs(ca) - np.abs(cb)
    worst = int(np.argmax(np.abs(defect)))
    if abs(defect[worst]) > tol:
        entry = tuple(int(i) for i in np.unravel_index(worst, dims))
        return _not_lu_equivalent(
            "fully isentropic and isospectral with nondegenerate marginals, but in their eigenframes "
            f"amplitude {entry} has magnitude {abs(ca[worst]):.9f} in A and {abs(cb[worst]):.9f} in B",
            magnitude=(entry, float(defect[worst])),
        )
    size = np.abs(cb)
    support = np.argsort(-size, kind="stable")[: np.count_nonzero(size > 2 * tol)]
    phi, noise = np.angle(ca[support] * cb[support].conj()), 5 * tol / size[support]
    offsets = np.cumsum((0,) + dims)
    cols = np.stack(np.unravel_index(support, dims), 1) + offsets[:-1]  # each entry's m phases
    theta, known, source, relations = np.zeros(offsets[-1]), np.zeros(offsets[-1], bool), {}, {}
    known[cols[:1, 1:]] = True  # the gauge: party 0 takes up the other parties' shifts

    def relation(entry: int, fixed: int = -1) -> Counter:
        """The phase `fixed` as a sum over the support; without it, a k with k^T A = 0."""
        k = Counter({entry: 1})
        for u in (set(cols[entry].tolist()) & source.keys()) - {fixed}:
            if u not in relations:
                relations[u] = relation(source[u], u)
            k.subtract(relations[u])
        return k

    searching, checked = False, np.zeros(len(support), bool)
    while True:
        open_ = ~known[cols]
        count = open_.sum(1)
        ready = np.flatnonzero(count == 1)
        if ready.size:  # in descending |b|, so each phase comes from its largest entry
            fixed, first = np.unique(cols[ready, open_[ready].argmax(1)], return_index=True)
            theta[fixed] = phi[ready[first]] - theta[cols[ready[first]]].sum(1)
            known[fixed] = True
            source.update(zip(fixed.tolist(), ready[first].tolist()))
            continue
        if not searching:  # every entry the phases determine is checked before a free pin
            new = np.flatnonzero((count == 0) & ~checked)
            checked[new] = True
            residual = (phi[new] - theta[cols[new]].sum(1) + math.pi) % (2 * math.pi) - math.pi
            excess = np.abs(residual) / noise[new]
            for i in sorted(np.flatnonzero(excess > 1), key=lambda i: -excess[i]):
                k = {e: c for e, c in relation(int(new[i])).items() if c}
                if abs(residual[i]) > sum(abs(c) * noise[e] for e, c in k.items()):
                    return _not_lu_equivalent(
                        "fully isentropic and isospectral with nondegenerate marginals, but in their "
                        f"eigenframes the phases of A against B break an integer relation over {len(k)} "
                        f"amplitudes, which local phases keep, by {residual[i]:.9f} rad",
                        phase_relation={tuple((cols[e] - offsets[:-1]).tolist()): c for e, c in k.items()},
                        phase_defect=float(residual[i]),
                    )
        if not count.any():
            break
        stuck = int(np.flatnonzero(count)[0])
        known[cols[stuck, open_[stuck].argmax()]] = True
        searching = True

    phases = np.exp(1j * theta)[:, None]
    mats = [fa @ (phases[o : o + len(fa)] * fb.conj().T) for (fa, fb), o in zip(frames, offsets)]
    if not _carries(mats, b, a):
        return None
    reason = "explicit per-party unitaries found carrying B onto A"
    return Classification(ComparisonVerdict.LU_EQUIVALENT, reason, details={"unitaries": mats})


def _not_lu_equivalent(why: str, witness: Partition | None = None, **details) -> Classification:
    why += ", which rules out local-unitary equivalence and with it any reduction either way"
    return Classification(ComparisonVerdict.INCOMPARABLE, why, witness, details)


def _carries(mats: Sequence[np.ndarray], b: PureState, a: PureState) -> bool:
    """Whether per-party `mats` carry b onto a, to fidelity 1 - 1e-9."""
    return abs(np.vdot(a.amplitudes, _turned_amplitudes(b, mats))) ** 2 >= 1.0 - _LU_FIDELITY_TOL


def _maximally_mixed_deviation(rho: np.ndarray) -> float:
    d = rho.shape[0]
    return float(np.max(np.abs(rho - np.eye(d) / d)))


def classify_states(a: PureState, b: PureState) -> Classification:
    """Classify the exact convertibility relation between two pure states.

    Two parties get the full majorization treatment. For more, marginally
    isentropic pairs obey a dichotomy: interconvertible (equivalently,
    related by local unitaries) or incomparable, never one-way. The
    classifier certifies what it can and returns Unknown otherwise; it
    never guesses.
    """
    if a.num_parties != b.num_parties:
        raise ValueError("states must share the number of parties")
    if a.num_parties < 2:
        raise ValueError("need at least two parties")
    read_a, read_b = _spectra_and_entropies(a), _spectra_and_entropies(b)
    if a.num_parties == 2:
        return _classify_bipartite(read_a[0], read_b[0])
    return _classify_from_spectra(a, b, read_a, read_b)


def _classify_from_spectra(
    a: PureState,
    b: PureState,
    read_a: tuple[dict[Partition, Fraction | np.ndarray], list[float]],
    read_b: tuple[dict[Partition, Fraction | np.ndarray], list[float]],
) -> Classification:
    """`classify_states` for three or more parties, given each state's cut
    spectra and partial entropies (`entropy._spectra_and_entropies`)."""
    (spectra_a, entropies_a), (spectra_b, entropies_b) = read_a, read_b
    vec_a = EntropyVector(a.num_parties, dict(zip(spectra_a, entropies_a)))
    vec_b = EntropyVector(b.num_parties, dict(zip(spectra_b, entropies_b)))

    if vec_a.max_difference(vec_b, size=1) > _ISENTROPY_TOL:
        a_dom = vec_a.dominates(vec_b)
        b_dom = vec_b.dominates(vec_a)
        if not a_dom and not b_dom:
            values_a, values_b = vec_a.values, vec_b.values
            up = next(p for p, _ in vec_a.entries() if values_a[p] < values_b[p] - _ISENTROPY_TOL)
            down = next(p for p, _ in vec_a.entries() if values_a[p] > values_b[p] + _ISENTROPY_TOL)
            return Classification(
                ComparisonVerdict.INCOMPARABLE,
                "each state has a partition with strictly larger entropy "
                f"({down.label} for A, {up.label} for B), and partial "
                "entropies never increase",
                witness_partition=up,
            )
        blocked = "B to A" if a_dom else "A to B"
        return Classification(
            ComparisonVerdict.UNKNOWN,
            "single-party entropies differ; entropy monotonicity only rules "
            f"out the {blocked} direction",
        )

    if vec_a.max_difference(vec_b) > _ISENTROPY_TOL:
        witness = next(p for p, _ in vec_a.entries() if abs(vec_a.values[p] - vec_b.values[p]) > _ISENTROPY_TOL)
        return Classification(
            ComparisonVerdict.INCOMPARABLE_BY_DICHOTOMY,
            "marginally isentropic but a joint partition's entropy differs, "
            "which rules out local-unitary equivalence and with it any "
            "reduction either way",
            witness_partition=witness,
        )

    spectral_witness = _partition_spectra_match(spectra_a, spectra_b)
    if spectral_witness is not None:
        return _not_lu_equivalent(
            "fully isentropic but marginal spectra differ across a partition", spectral_witness
        )

    aligned = _lu_align(a, b)
    if aligned is not None:
        return aligned

    # a pair of parties is not a cut, so this verdict has no witness partition
    pairs_a, pairs_b = _pair_transpose_spectra(a), _pair_transpose_spectra(b)
    for pair in sorted(pairs_a.keys() & pairs_b.keys()):
        ea, eb = pairs_a[pair], pairs_b[pair]
        if _spectra_differ(ea, eb):
            min_a, min_b = float(ea[-1]), float(eb[-1])
            return _not_lu_equivalent(
                f"fully isentropic and isospectral, but the reduction to parties {party_letters(pair)} has "
                f"different spectra after a partial transpose (minimum eigenvalue {min_a:.9f} for A, "
                f"{min_b:.9f} for B)",
                pair=pair,
                min_eigenvalue_a=min_a,
                min_eigenvalue_b=min_b,
            )

    # local unitaries keep an m-orthogonal form and map it onto any form of equal coefficients
    ortho_a, ortho_b = _decide_m_orthogonal(a, entropies_a), _decide_m_orthogonal(b, entropies_b)
    if ortho_a.decomposable != ortho_b.decomposable:
        yes, no = ("A", ortho_b) if ortho_a else ("B", ortho_a)
        return _not_lu_equivalent(
            f"fully isentropic and isospectral, but only {yes} is m-orthogonal (the other: "
            f"{no.reason}), and local unitaries keep a state m-orthogonal",
            m_orthogonal=yes,
        )
    if ortho_a and a.dims == b.dims and ortho_a.form.rank == ortho_b.form.rank:
        mats = []  # each takes B's kets onto A's, and the complements of their spans likewise
        for va, vb in zip(ortho_a.form.vectors, ortho_b.form.vectors):
            ca, cb = (np.linalg.qr(v, mode="complete")[0][:, v.shape[1] :] for v in (va, vb))
            mats.append(va @ vb.conj().T + ca @ cb.conj().T)
        if _carries(mats, b, a):
            return Classification(
                ComparisonVerdict.LU_EQUIVALENT,
                "both states are m-orthogonal with equal coefficients; per-party "
                "unitaries carry the form of B onto the form of A",
                details={"unitaries": mats},
            )

    return Classification(
        ComparisonVerdict.UNKNOWN,
        "fully isentropic and isospectral; no certificate found either way",
    )


# --- the standard incomparable pair ------------------------------------------


@dataclass(frozen=True)
class GhzEprWitness:
    """Evidence that two 3-party cat states and three pairwise EPR pairs,
    though they share every partial entropy, cannot be converted into each
    other.

    The decisive contrast sits in the reduction to parties B and C: the
    cats leave them in a classical mixture of basis products (each party
    individually exactly maximally mixed), while the EPR configuration
    leaves them an intact entangled pair. The report shows that pair as
    the minimum partial-transpose eigenvalue over the B,C qubit pairs of
    the EPR configuration's six qubits; the verdict comes from
    `classify_states`, whose certificate is the differing
    partial-transpose spectra of a two-party reduction.
    """

    entropy_vector_cats: list[tuple[str, float]]
    entropy_vector_eprs: list[tuple[str, float]]
    cats_bc_offdiagonal_max: float
    cats_bc_nonzero_spectrum: list[float]
    cats_b_marginal_deviation: float
    cats_c_marginal_deviation: float
    cats_marginal_product_deviation: float
    eprs_bc_ppt_eigenvalue: float
    verdict: ComparisonVerdict
    reason: str

    def render(self) -> str:
        lines = ["two 3-party cat states versus three EPR pairs", ""]
        lines.append("partial entropies (bits):")
        for (label, va), (_, vb) in zip(
            self.entropy_vector_cats, self.entropy_vector_eprs
        ):
            lines.append(f"  {label:>4s}  cats {va:.9f}   eprs {vb:.9f}")
        lines.append("")
        lines.append("cats reduced to parties B,C:")
        lines.append(
            "  classical mixture of basis products; largest off-diagonal "
            f"entry {self.cats_bc_offdiagonal_max:.3e}"
        )
        spectrum = ", ".join(f"{x:.9f}" for x in self.cats_bc_nonzero_spectrum)
        lines.append(f"  nonzero eigenvalues: {spectrum}")
        lines.append(
            "  each party separately maximally mixed: |rho_B - I/4| = "
            f"{self.cats_b_marginal_deviation:.3e}, |rho_C - I/4| = "
            f"{self.cats_c_marginal_deviation:.3e}, "
            f"|rho_B x rho_C - I/16| = {self.cats_marginal_product_deviation:.3e}"
        )
        lines.append(
            "eprs reduced to their B,C qubit pair: minimum eigenvalue after "
            f"partial transpose = {self.eprs_bc_ppt_eigenvalue:.9f}"
        )
        lines.append("")
        lines.append(f"verdict: {self.verdict}")
        lines.append(self.reason)
        return "\n".join(lines)


def ghz_epr_witness() -> GhzEprWitness:
    """Work through the incomparability of 2 cat states versus 3 EPR pairs.

    Both states carry two bits of entropy across every partition, yet the
    cats leave parties B and C in a separable classical mixture while the
    EPR configuration leaves them a perfect entangled pair, and no exact
    protocol can bridge that. The returned report carries the computed
    evidence; `render()` formats it.
    """
    cats = cat_power(3, 2)
    eprs = eprs_complete(3)
    read_c, read_e = _spectra_and_entropies(cats), _spectra_and_entropies(eprs)
    spectra_c = read_c[0]

    rho_bc = reduced_gram(cats, [1, 2])
    off_diag = float(np.max(np.abs(rho_bc - np.diag(np.diag(rho_bc)))))
    bc = _as_eigenvalues(spectra_c[Partition(3, (1, 2)).canonical()])
    spectrum = bc[bc > _EIGENVALUE_FLOOR].tolist()
    rho_b = reduced_gram(cats, [1])
    rho_c = reduced_gram(cats, [2])
    dev_b = _maximally_mixed_deviation(rho_b)
    dev_c = _maximally_mixed_deviation(rho_c)
    dev_product = _maximally_mixed_deviation(np.kron(rho_b, rho_c))

    # the EPR configuration viewed on its six qubits: B holds qubits 2 and 3,
    # C holds 4 and 5
    qubit_spectra = _pair_transpose_spectra(PureState((2,) * 6, eprs.amplitudes))
    eig = min(float(qubit_spectra[pair][-1]) for pair in itertools.product((2, 3), (4, 5)))
    if eig >= -_SPECTRUM_TOL:
        raise InternalError("expected a distillable pair between B and C")

    classified = _classify_from_spectra(cats, eprs, read_c, read_e)
    return GhzEprWitness(
        entropy_vector_cats=[(p.label, v) for p, v in zip(*read_c)],
        entropy_vector_eprs=[(p.label, v) for p, v in zip(*read_e)],
        cats_bc_offdiagonal_max=off_diag,
        cats_bc_nonzero_spectrum=spectrum,
        cats_b_marginal_deviation=dev_b,
        cats_c_marginal_deviation=dev_c,
        cats_marginal_product_deviation=dev_product,
        eprs_bc_ppt_eigenvalue=eig,
        verdict=classified.verdict,
        reason=classified.reason,
    )
