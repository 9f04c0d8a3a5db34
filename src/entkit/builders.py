"""Builders for the named states used across the package and CLI.

Naming accepted by `parse_named_state` (case-insensitive):

* ``epr``            two-party EPR pair (|00> + |11>)/sqrt(2)
* ``ghz``            three-party cat state
* ``cat4``, ``cat5`` ... m-party cat state (|0...0> + |1...1>)/sqrt(2)
* ``2ghz``, ``3ghz`` n GHZ states stacked on the same three parties
* ``eprs3`` ... ``eprs5``  complete graph of EPR pairs among m parties
* ``3epr``           alias for eprs3 (the symmetric EPR triangle)
* ``chain3`` ...     EPR chain A-B, B-C, ... among m parties
* ``codeword5``      five-qubit code logical zero (maximally entangled
                     across every partition)
* anything else is treated as a path to a state JSON file
"""
from __future__ import annotations

import math
import re

import numpy as np

from .states import PureState, load_state, make_state, tensor

__all__ = [
    "epr_pair",
    "cat_state",
    "embedded_cat",
    "epr_between",
    "cat_power",
    "eprs_graph",
    "eprs_complete",
    "eprs_chain",
    "complete_graph_edges",
    "chain_edges",
    "codeword5",
    "parse_named_state",
]


def epr_pair() -> PureState:
    """(|00> + |11>)/sqrt(2) on two parties."""
    return make_state((2, 2), [("00", 1), ("11", 1)])


def cat_state(m: int) -> PureState:
    """m-party cat state (|0...0> + |1...1>)/sqrt(2), one qubit per party."""
    if m < 2:
        raise ValueError("a cat state needs at least two parties")
    return make_state((2,) * m, [((0,) * m, 1), ((1,) * m, 1)])


def embedded_cat(num_parties: int, members: tuple[int, ...] | list[int]) -> PureState:
    """Cat state among `members`, with dimension-1 slots for bystanders."""
    members = tuple(sorted(set(int(p) for p in members)))
    if len(members) < 2:
        raise ValueError("an embedded cat needs at least two member parties")
    if members[0] < 0 or members[-1] >= num_parties:
        raise ValueError("member index out of range")
    dims = tuple(2 if p in members else 1 for p in range(num_parties))
    zero = tuple(0 for _ in range(num_parties))
    one = tuple(1 if p in members else 0 for p in range(num_parties))
    return make_state(dims, [(zero, 1), (one, 1)])


def epr_between(num_parties: int, i: int, j: int) -> PureState:
    """EPR pair between parties i and j of an m-party system."""
    if i == j:
        raise ValueError("an EPR pair needs two distinct parties")
    return embedded_cat(num_parties, (i, j))


def cat_power(m: int, copies: int) -> PureState:
    """`copies` independent m-party cat states held by the same m parties."""
    if copies < 1:
        raise ValueError("need at least one copy")
    state = cat_state(m)
    for _ in range(copies - 1):
        state = tensor(state, cat_state(m), {p: p for p in range(m)})
    return state


def complete_graph_edges(m: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(m) for j in range(i + 1, m)]


def chain_edges(m: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(m - 1)]


def eprs_graph(m: int, edges: list[tuple[int, int]]) -> PureState:
    """One EPR pair per graph edge; each party holds one qubit per incident edge.

    Within a party, qubits are ordered by the position of their edge in
    `edges`. Total dimension is 4**len(edges), so large graphs must stay
    within the dense limit.
    """
    if not edges:
        raise ValueError("need at least one edge")
    state: PureState | None = None
    for i, j in edges:
        if not (0 <= i < m and 0 <= j < m and i != j):
            raise ValueError(f"bad edge ({i}, {j}) for {m} parties")
        if state is None:
            state = embedded_cat(m, (i, j))
        else:
            state = tensor(state, epr_pair(), {0: min(i, j), 1: max(i, j)})
    assert state is not None
    return state


def eprs_complete(m: int) -> PureState:
    """EPR pairs on every pair of m parties (the complete graph)."""
    return eprs_graph(m, complete_graph_edges(m))


def eprs_chain(m: int) -> PureState:
    return eprs_graph(m, chain_edges(m))


# Stabilizer generators of the five-qubit code; the logical zero is the
# (normalized) projection of |00000> onto their joint +1 eigenspace.
_FIVE_QUBIT_STABILIZERS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")


def _apply_pauli_string(pauli: str, vec: np.ndarray) -> np.ndarray:
    """Apply an n-qubit Pauli string (I, X, Z only) to a dense vector."""
    n = len(pauli)
    out = vec.reshape((2,) * n).copy()
    for q, op in enumerate(pauli):
        if op == "I":
            continue
        if op == "X":
            out = np.flip(out, axis=q)
        elif op == "Z":
            sign = np.array([1.0, -1.0]).reshape((1,) * q + (2,) + (1,) * (n - q - 1))
            out = out * sign
        else:
            raise ValueError(f"unsupported Pauli letter {op!r}")
    return out.reshape(-1)


def codeword5() -> PureState:
    """Logical |0> of the five-qubit code, one qubit per party.

    Every bipartition of the five parties is maximally entangled:
    S_X = min(|X|, 5 - |X|) bits.
    """
    vec = np.zeros(32, dtype=complex)
    vec[0] = 1.0
    for pauli in _FIVE_QUBIT_STABILIZERS:
        vec = vec + _apply_pauli_string(pauli, vec)
    return PureState((2,) * 5, vec)


_CAT_RE = re.compile(r"^cat(\d+)$")
_EPRS_RE = re.compile(r"^eprs(\d+)$")
_CHAIN_RE = re.compile(r"^chain(\d+)$")
_NGHZ_RE = re.compile(r"^(\d+)ghz$")
_EPR_PAIR_RE = re.compile(r"^epr\(([a-z0-9]+),([a-z0-9]+)(?:,(\d+))?\)$")


def _party_index(token: str) -> int:
    if token.isdigit():
        return int(token)
    if len(token) == 1 and "a" <= token <= "z":
        return ord(token) - ord("a")
    raise ValueError(f"cannot read {token!r} as a party")


def parse_named_state(name_or_path: str) -> PureState:
    """Resolve a named state or a path to a state JSON file."""
    name = name_or_path.strip().lower()
    if name == "epr":
        return epr_pair()
    if name == "ghz":
        return cat_state(3)
    if name == "3epr":
        return eprs_complete(3)
    if name == "codeword5":
        return codeword5()
    if m := _CAT_RE.match(name):
        return cat_state(int(m.group(1)))
    if m := _EPRS_RE.match(name):
        return eprs_complete(int(m.group(1)))
    if m := _CHAIN_RE.match(name):
        return eprs_chain(int(m.group(1)))
    if m := _NGHZ_RE.match(name):
        return cat_power(3, int(m.group(1)))
    if m := _EPR_PAIR_RE.match(name):
        i, j = _party_index(m.group(1)), _party_index(m.group(2))
        parties = int(m.group(3)) if m.group(3) else max(i, j) + 1
        return epr_between(parties, i, j)
    try:
        return load_state(name_or_path)
    except FileNotFoundError:
        raise ValueError(
            f"unknown state {name_or_path!r}: not a recognized name and no such file"
        ) from None
