"""Deciding when one shared pure state can be turned into another.

For two parties the question is settled by majorization of the Schmidt
spectra. For three or more, partial entropies give a sharp dichotomy on
marginally isentropic pairs: they are either interconvertible (and then
related by local unitaries) or incomparable, with no one-way reductions.
The classifier walks that tree, certifying local-unitary equivalence by
explicitly constructing the unitaries where it can, and certifying
incomparability from invariant mismatches or from a structural
obstruction: a two-party reduction that is exactly maximally mixed on one
side while the other side's same reduction holds a distillable qubit pair.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .entropy import _ISENTROPY_TOL, _vector_from_spectra, cut_spectra
from .errors import InternalError
from .linalg import hermitian_eigensystem, hermitian_eigenvalues
from .schmidt import schmidt_decompose
from .states import Partition, PureState, reduced_gram, refine_to_qubits

__all__ = [
    "majorizes",
    "bipartite_spectrum",
    "exact_bipartite_reducible",
    "lu_equivalent_bipartite",
    "ComparisonVerdict",
    "Classification",
    "classify_states",
    "ppt_minimum_eigenvalue",
    "is_npt_pair",
    "GhzEprWitness",
    "ghz_epr_witness",
]

_MAJORIZATION_TOL = 1e-10
_SPECTRUM_TOL = 1e-8
_LU_FIDELITY_TOL = 1e-9
_NPT_TOL = 1e-10
_MAXMIX_TOL = 1e-10


def majorizes(q: Sequence[float], p: Sequence[float]) -> bool:
    """Whether distribution q majorizes p (prefix sums of q dominate, within 1e-10).

    Inputs are padded to a common length and sorted descending; both must
    sum to 1 within 1e-8.
    """
    qs = sorted((float(x) for x in q), reverse=True)
    ps = sorted((float(x) for x in p), reverse=True)
    if abs(sum(qs) - 1.0) > 1e-8 or abs(sum(ps) - 1.0) > 1e-8:
        raise ValueError("majorization needs normalized distributions")
    n = max(len(qs), len(ps))
    qs += [0.0] * (n - len(qs))
    ps += [0.0] * (n - len(ps))
    acc_q = acc_p = 0.0
    for i in range(n):
        acc_q += qs[i]
        acc_p += ps[i]
        if acc_q < acc_p - _MAJORIZATION_TOL:
            return False
    return True


def bipartite_spectrum(state: PureState) -> np.ndarray:
    """Squared Schmidt coefficients of a two-party state, descending."""
    if state.num_parties != 2:
        raise ValueError("need exactly two parties")
    return schmidt_decompose(state, (0,)).spectrum()


def exact_bipartite_reducible(source: PureState, target: PureState) -> bool:
    """Whether `source` reaches `target` exactly by local steps and messages.

    Holds precisely when the target's Schmidt spectrum majorizes the
    source's. The two states may have different local dimensions.
    """
    return majorizes(bipartite_spectrum(target), bipartite_spectrum(source))


def lu_equivalent_bipartite(a: PureState, b: PureState) -> bool:
    """Two-party local-unitary equivalence: Schmidt spectra equal within 1e-8."""
    sa = list(bipartite_spectrum(a))
    sb = list(bipartite_spectrum(b))
    n = max(len(sa), len(sb))
    sa += [0.0] * (n - len(sa))
    sb += [0.0] * (n - len(sb))
    return bool(max(abs(x - y) for x, y in zip(sa, sb)) <= _SPECTRUM_TOL)


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


def _classify_bipartite(a: PureState, b: PureState) -> Classification:
    sa = bipartite_spectrum(a)
    sb = bipartite_spectrum(b)
    a_to_b = majorizes(sb, sa)
    b_to_a = majorizes(sa, sb)
    if a_to_b and b_to_a:
        return Classification(
            ComparisonVerdict.LU_EQUIVALENT,
            "equal Schmidt spectra, interconvertible both ways",
        )
    if a_to_b:
        return Classification(
            ComparisonVerdict.REDUCIBLE_A_TO_B,
            "target spectrum majorizes the source spectrum",
        )
    if b_to_a:
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
        ea, eb = _as_eigenvalues(value), _as_eigenvalues(spectra_b[part])
        n = max(len(ea), len(eb))
        pa = np.zeros(n)
        pb = np.zeros(n)
        pa[: len(ea)] = ea
        pb[: len(eb)] = eb
        if np.max(np.abs(pa - pb)) > _SPECTRUM_TOL:
            return part
    return None


def _apply_party_unitaries(state: PureState, mats: Sequence[np.ndarray]) -> PureState:
    t = state.as_tensor()
    for party, mat in enumerate(mats):
        t = np.moveaxis(
            np.tensordot(mat, t, axes=([1], [party])), 0, party
        )
    return PureState(state.dims, t.reshape(-1))


def _lu_align(a: PureState, b: PureState) -> list[np.ndarray] | None:
    """Search for per-party unitaries carrying b onto a.

    Works in the canonical frame set by each party's marginal eigenbasis,
    which pins the unitaries down to diagonal phases; the phases are then
    propagated through the nonzero amplitudes. Only attempted for small
    systems with nondegenerate marginals; any failure returns None (the
    result is verified by fidelity before being trusted).
    """
    if a.dims != b.dims:
        return None
    m = a.num_parties
    if m > 3 or any(d > 4 for d in a.dims):
        return None
    frames_a: list[np.ndarray] = []
    frames_b: list[np.ndarray] = []
    for party in range(m):
        ea, va = hermitian_eigensystem(reduced_gram(a, [party]))
        eb, vb = hermitian_eigensystem(reduced_gram(b, [party]))
        if np.max(np.abs(ea - eb)) > _SPECTRUM_TOL:
            return None
        # eigenvalues come sorted descending; a near-zero gap means a
        # degenerate marginal and the eigenframe is not canonical
        if len(ea) > 1 and np.min(np.abs(np.diff(ea))) < _SPECTRUM_TOL:
            return None
        frames_a.append(va)
        frames_b.append(vb)

    a_canon = _apply_party_unitaries(a, [v.conj().T for v in frames_a]).amplitudes
    b_canon = _apply_party_unitaries(b, [v.conj().T for v in frames_b]).amplitudes
    if np.max(np.abs(np.abs(a_canon) - np.abs(b_canon))) > 1e-7:
        return None

    # the two canonical vectors can differ only by per-party phases now;
    # solve sum_p theta[p][i_p] = arg(a/b) over the common support
    dims = a.dims
    support = [
        idx for idx in range(len(b_canon)) if abs(b_canon[idx]) > 1e-8
    ]
    equations = []
    for idx in support:
        digits = []
        rem = idx
        for d in reversed(dims):
            digits.append(rem % d)
            rem //= d
        digits.reverse()
        phi = float(np.angle(a_canon[idx] / b_canon[idx]))
        equations.append((tuple(digits), phi))

    theta: list[dict[int, float]] = [dict() for _ in range(m)]
    for party in range(1, m):
        levels = {digits[party] for digits, _ in equations}
        if levels:
            theta[party][min(levels)] = 0.0

    pending = list(equations)
    while pending:
        progress = False
        still = []
        for digits, phi in pending:
            unknown = [
                p for p in range(m) if digits[p] not in theta[p]
            ]
            if not unknown:
                total = sum(theta[p][digits[p]] for p in range(m))
                diff = (phi - total + math.pi) % (2 * math.pi) - math.pi
                if abs(diff) > 1e-6:
                    return None
                progress = True
                continue
            if len(unknown) == 1:
                p = unknown[0]
                rest = sum(
                    theta[q][digits[q]] for q in range(m) if q != p
                )
                theta[p][digits[p]] = phi - rest
                progress = True
                continue
            still.append((digits, phi))
        pending = still
        if pending and not progress:
            # disconnected support: pin one more phase and keep going
            digits, _ = pending[0]
            p = next(q for q in range(m) if digits[q] not in theta[q])
            theta[p][digits[p]] = 0.0

    mats = []
    for party in range(m):
        phases = np.ones(dims[party], dtype=complex)
        for level, angle in theta[party].items():
            phases[level] = np.exp(1j * angle)
        mats.append(frames_a[party] @ np.diag(phases) @ frames_b[party].conj().T)
    moved = _apply_party_unitaries(b, mats)
    if abs(moved.overlap(a)) ** 2 < 1.0 - _LU_FIDELITY_TOL:
        return None
    return mats


def ppt_minimum_eigenvalue(rho: np.ndarray) -> float:
    """Smallest eigenvalue of a two-qubit state after partial transpose."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("expected a 4x4 two-qubit reduced matrix")
    t = rho.reshape(2, 2, 2, 2)
    # transpose the second qubit: swap its bra and ket indices
    pt = t.transpose(0, 3, 2, 1).reshape(4, 4)
    return float(hermitian_eigenvalues(pt)[-1])


def is_npt_pair(rho: np.ndarray) -> bool:
    """Whether a two-qubit state fails the positive-partial-transpose test
    by more than 1e-10 (for two qubits this is exactly entanglement)."""
    return ppt_minimum_eigenvalue(rho) < -_NPT_TOL


def _maximally_mixed_deviation(rho: np.ndarray) -> float:
    d = rho.shape[0]
    return float(np.max(np.abs(rho - np.eye(d) / d)))


def _off_diagonal_max(rho: np.ndarray) -> float:
    return float(np.max(np.abs(rho - np.diag(np.diag(rho)))))


def _npt_cross_pair(
    state: PureState, party_x: int, party_y: int
) -> tuple[tuple[int, int], float] | None:
    """Search for a distillable qubit pair between two parties.

    Refines both parties into qubit factors and tests every cross pair of
    qubits with the partial-transpose criterion; returns (qubit indices,
    minimum eigenvalue) for the most negative pair found.
    """
    refined, groups = refine_to_qubits(state)
    best = None
    for qx in groups[party_x]:
        for qy in groups[party_y]:
            rho = reduced_gram(refined, [qx, qy])
            if rho.shape != (4, 4):
                continue
            eig = ppt_minimum_eigenvalue(rho)
            if eig < -_NPT_TOL and (best is None or eig < best[1]):
                best = ((qx, qy), eig)
    return best


def _separable_versus_entangled(
    a: PureState, b: PureState
) -> Classification | None:
    """Obstruction for fully isentropic pairs.

    If the states were interconvertible they would be related by local
    unitaries, and unitaries on two parties carry one state's reduction to
    those parties onto the other's. So a reduction that is certifiably
    separable on one side (diagonal in the product basis, i.e. a classical
    mixture of basis products) cannot face a reduction holding a
    distillable qubit pair on the other side.
    """
    m = a.num_parties
    for pair in itertools.combinations(range(m), 2):
        for first, second, tag in ((a, b, "A"), (b, a, "B")):
            rho_first = reduced_gram(first, pair)
            if _off_diagonal_max(rho_first) > _MAXMIX_TOL:
                continue
            found = _npt_cross_pair(second, *pair)
            if found is None:
                continue
            qubits, eig = found
            other = "B" if tag == "A" else "A"
            label = Partition(m, pair).label
            return Classification(
                ComparisonVerdict.INCOMPARABLE,
                f"the reduction to parties {label} is a classical mixture of "
                f"basis products for state {tag}, but state {other} holds a "
                f"distillable qubit pair there (partial-transpose eigenvalue "
                f"{eig:.9f}); local unitaries cannot bridge that, and "
                "non-equivalent fully isentropic states are incomparable",
                details={
                    "pair": pair,
                    "separable_side": tag,
                    "npt_qubits": qubits,
                    "npt_eigenvalue": eig,
                },
            )
    return None


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
    if a.num_parties == 2:
        return _classify_bipartite(a, b)
    return _classify_from_spectra(a, b, cut_spectra(a), cut_spectra(b))


def _classify_from_spectra(
    a: PureState,
    b: PureState,
    spectra_a: dict[Partition, Fraction | np.ndarray],
    spectra_b: dict[Partition, Fraction | np.ndarray],
) -> Classification:
    """`classify_states` for three or more parties, given each state's
    `cut_spectra`."""
    vec_a = _vector_from_spectra(a.num_parties, spectra_a)
    vec_b = _vector_from_spectra(b.num_parties, spectra_b)

    if vec_a.max_difference(vec_b, size=1) > _ISENTROPY_TOL:
        a_dom = vec_a.dominates(vec_b)
        b_dom = vec_b.dominates(vec_a)
        if not a_dom and not b_dom:
            values_a, values_b = vec_a.values, vec_b.values
            up = next(
                p for p, _ in vec_a.entries() if values_a[p] < values_b[p] - _ISENTROPY_TOL
            )
            down = next(
                p for p, _ in vec_a.entries() if values_a[p] > values_b[p] + _ISENTROPY_TOL
            )
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
        witness = next(
            p
            for p, _ in vec_a.entries()
            if abs(vec_a.values[p] - vec_b.values[p]) > _ISENTROPY_TOL
        )
        return Classification(
            ComparisonVerdict.INCOMPARABLE_BY_DICHOTOMY,
            "marginally isentropic but a joint partition's entropy differs, "
            "which rules out local-unitary equivalence and with it any "
            "reduction either way",
            witness_partition=witness,
        )

    spectral_witness = _partition_spectra_match(spectra_a, spectra_b)
    if spectral_witness is not None:
        return Classification(
            ComparisonVerdict.INCOMPARABLE,
            "fully isentropic but marginal spectra differ across a "
            "partition, which rules out local-unitary equivalence and with "
            "it any reduction either way",
            witness_partition=spectral_witness,
        )

    mats = _lu_align(a, b)
    if mats is not None:
        return Classification(
            ComparisonVerdict.LU_EQUIVALENT,
            "explicit per-party unitaries found carrying B onto A",
            details={"unitaries": mats},
        )

    obstruction = _separable_versus_entangled(a, b)
    if obstruction is not None:
        return obstruction

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
    leaves them an intact entangled pair, witnessed by a negative
    partial-transpose eigenvalue.
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
    from .builders import cat_power, eprs_complete

    cats = cat_power(3, 2)
    eprs = eprs_complete(3)

    spectra_c = cut_spectra(cats)
    spectra_e = cut_spectra(eprs)
    vec_c = _vector_from_spectra(cats.num_parties, spectra_c)
    vec_e = _vector_from_spectra(eprs.num_parties, spectra_e)

    rho_bc = reduced_gram(cats, [1, 2])
    off_diag = _off_diagonal_max(rho_bc)
    spectrum = [
        float(x) for x in hermitian_eigenvalues(rho_bc) if x > 1e-12
    ]
    rho_b = reduced_gram(cats, [1])
    rho_c = reduced_gram(cats, [2])
    dev_b = _maximally_mixed_deviation(rho_b)
    dev_c = _maximally_mixed_deviation(rho_c)
    dev_product = _maximally_mixed_deviation(np.kron(rho_b, rho_c))

    found = _npt_cross_pair(eprs, 1, 2)
    if found is None:
        raise InternalError("expected a distillable pair between B and C")
    _, eig = found

    classified = _classify_from_spectra(cats, eprs, spectra_c, spectra_e)
    return GhzEprWitness(
        entropy_vector_cats=[(p.label, v) for p, v in vec_c.entries()],
        entropy_vector_eprs=[(p.label, v) for p, v in vec_e.entries()],
        cats_bc_offdiagonal_max=off_diag,
        cats_bc_nonzero_spectrum=spectrum,
        cats_b_marginal_deviation=dev_b,
        cats_c_marginal_deviation=dev_c,
        cats_marginal_product_deviation=dev_product,
        eprs_bc_ppt_eigenvalue=eig,
        verdict=classified.verdict,
        reason=classified.reason,
    )
