import numpy as np

from entkit import ProtocolBuilder, random_unitary


def random_basis_projectors(dim: int, rng) -> list[np.ndarray]:
    u = random_unitary(dim, rng)
    return [np.outer(u[:, i], u[:, i].conj()) for i in range(dim)]


def random_protocol(rng, num_steps: int | None = None):
    """A random valid three-qubit protocol.

    Mixes local unitaries, projective measurements in random bases, and
    transcript-conditioned unitaries. Everything a classical-communication
    round can do, nothing it cannot.
    """
    builder = ProtocolBuilder([[2], [2], [2]])
    n = int(rng.integers(3, 7)) if num_steps is None else num_steps
    for _ in range(n):
        roll = rng.random()
        party = int(rng.integers(0, 3))
        if roll < 0.40:
            builder.unitary(party, random_unitary(2, rng))
        elif roll < 0.75:
            builder.measure(party, random_basis_projectors(2, rng), ["0", "1"])
        else:
            builder.conditioned(party, lambda transcript: random_unitary(2, rng))
    return builder.steps()


_UNITARY = {"type": "unitary", "party": 0, "matrix": [[1, 0], [0, 1]]}

# (protocol file payload, start of the one error it must raise); steps are
# numbered from 0
MALFORMED_PROTOCOLS = [
    (_UNITARY, "a protocol is a list of steps, not dict"),
    ([_UNITARY, [1, 0]], "protocol step 1: expected an object, not list"),
    ([{"type": "teleport", "party": 0}], "protocol step 0: unknown step type 'teleport'"),
    ([{"party": 0}], "protocol step 0: unknown step type None"),
    ([{"type": ["unitary"], "party": 0}], "protocol step 0: unknown step type ['unitary']"),
    ([{"type": "unitary", "matrix": [[1]]}], "protocol step 0 (unitary): missing field 'party'"),
    (
        [_UNITARY, _UNITARY, _UNITARY, {"type": "discard", "party": 0, "factor_dims": [2, 1]}],
        "protocol step 3 (discard): missing field 'discard'",
    ),
    ([{"type": "measurement", "party": 0, "outcomes": ["0"]}], "protocol step 0 (measurement): missing field 'projectors'"),
    ([{"type": "unitary", "party": "a", "matrix": [[1]]}], "protocol step 0 (unitary): "),
    ([{"type": "unitary", "party": None, "matrix": [[1]]}], "protocol step 0 (unitary): "),
    ([{"type": "unitary", "party": 0, "matrix": 5}], "protocol step 0 (unitary): "),
    ([{"type": "unitary", "party": 0, "matrix": [[1], [1, 0]]}], "protocol step 0 (unitary): "),
    ([{"type": "unitary", "party": 0, "matrix": [[[1, 0, 0]]]}], "protocol step 0 (unitary): "),
    ([{"type": "unitary", "party": 0, "matrix": [[1]], "on": [0]}], "protocol step 0 (unitary): 'on', "),
    ([{"type": "measurement", "party": 0, "projectors": [[[1]]], "outcomes": 3}], "protocol step 0 (measurement): "),
    ([{"type": "measurement", "party": 0, "projectors": 7, "outcomes": ["0"]}], "protocol step 0 (measurement): "),
    ([{"type": "conditioned", "party": 0, "table": [[1]]}], "protocol step 0 (conditioned): "),
    ([{"type": "discard", "party": 0, "factor_dims": 2, "discard": [0]}], "protocol step 0 (discard): "),
    ([{"type": "discard", "party": 0, "factor_dims": [2], "discard": [3]}], "protocol step 0 (discard): "),
]

# (state file payload, start of the one error it must raise); terms are
# numbered from 0
MALFORMED_STATES = [
    ({"dims": [2, 2], "terms": [{"re": 1.0}]}, "state term 0: missing field 'basis'"),
    (
        {"dims": [2, 2], "terms": [{"basis": [0, 0], "re": 1.0}, {"basis": [1, 1], "re": None}]},
        "state term 1: ",
    ),
    ({"dims": [2, 2], "terms": 5}, "state terms must be a list, not int"),
    ({"dims": [2, 2], "terms": [{"basis": [0, 0]}, [1, 1]]}, "state term 1: expected an object, not list"),
    ({"dims": [2, 2], "terms": [{"basis": [0, "x"]}]}, "state term 0: "),
    ({"dims": [2, 2], "terms": [{"basis": 0}]}, "state term 0: "),
]
