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
    (
        [{"type": "discard", "party": 0, "factor_dims": 2, "discard": [0]}],
        "protocol step 0 (discard): field 'factor_dims': ",
    ),
    (
        [{"type": "measurement", "party": 0, "projectors": [[[1]]], "outcomes": 3}],
        "protocol step 0 (measurement): field 'outcomes': ",
    ),
    # counts and indices are JSON integers: no bool, float or string
    ([{"type": "unitary", "party": 0.9, "matrix": [[1]]}], "protocol step 0 (unitary): field 'party': expected an integer"),
    ([{"type": "unitary", "party": "0", "matrix": [[1]]}], "protocol step 0 (unitary): field 'party': expected an integer"),
    ([{"type": "unitary", "party": True, "matrix": [[1]]}], "protocol step 0 (unitary): field 'party': expected an integer"),
    (
        [{"type": "discard", "party": 0, "factor_dims": [2.7, 2], "discard": [0]}],
        "protocol step 0 (discard): field 'factor_dims': expected an integer",
    ),
    (
        [{"type": "discard", "party": 0, "factor_dims": [2, 1], "discard": [True]}],
        "protocol step 0 (discard): field 'discard': expected an integer",
    ),
    (
        [{"type": "unitary", "party": 0, "matrix": [[1]], "factor_dims": [2], "on": ["0"]}],
        "protocol step 0 (unitary): field 'on': expected an integer",
    ),
    (
        [{"type": "unitary", "party": 0, "matrix": [[1]], "factor_dims": [2], "on": [], "out_dims": [1.0]}],
        "protocol step 0 (unitary): field 'out_dims': expected an integer",
    ),
    (
        [{"type": "unitary", "party": 0, "matrix": [[1]], "factor_dims": [2], "on": [], "insert_at": False}],
        "protocol step 0 (unitary): field 'insert_at': expected an integer",
    ),
    # matrix entries are numbers or [re, im] pairs of numbers
    ([{"type": "unitary", "party": 0, "matrix": [[True]]}], "protocol step 0 (unitary): field 'matrix': matrix entry True"),
    ([{"type": "unitary", "party": 0, "matrix": [[[1, False]]]}], "protocol step 0 (unitary): field 'matrix': matrix entry"),
    ([{"type": "unitary", "party": 0, "matrix": [[["1", 0]]]}], "protocol step 0 (unitary): field 'matrix': matrix entry"),
    (
        [{"type": "measurement", "party": 0, "projectors": [[[True]]], "outcomes": ["0"]}],
        "protocol step 0 (measurement): field 'projectors': matrix entry True",
    ),
    (
        [{"type": "conditioned", "party": 0, "table": {"": [["1"]]}}],
        "protocol step 0 (conditioned): field 'table': matrix entry '1'",
    ),
    ([{"type": "unitary", "party": 0, "matrix": [[10**400]]}], "protocol step 0 (unitary): field 'matrix': int too large"),
    # outcome labels are a list of JSON strings
    (
        [{"type": "measurement", "party": 0, "projectors": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "outcomes": "01"}],
        "protocol step 0 (measurement): field 'outcomes': expected a list of strings",
    ),
    (
        [{"type": "measurement", "party": 0, "projectors": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "outcomes": [0, 1]}],
        "protocol step 0 (measurement): field 'outcomes': expected a list of strings",
    ),
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
    # digits are JSON integers, amplitudes JSON numbers
    ({"dims": [2, 2], "terms": [{"basis": [0, 1.7], "re": 1.0}]}, "state term 0: basis must be 2 integer digits"),
    ({"dims": [2, 2], "terms": [{"basis": ["1", 0], "re": 1.0}]}, "state term 0: basis must be 2 integer digits"),
    (
        {"dims": [2, 2], "terms": [{"basis": [0, 0], "re": 1.0}, {"basis": [1, 1], "re": "0.5"}]},
        "state term 1: 're' and 'im' must be numbers",
    ),
    ({"dims": [2, 2], "terms": [{"basis": [0, 2], "re": 1.0}]}, "state term 0: basis must be 2 integer digits"),
    ({"dims": 5, "terms": []}, "state dims must be a list of positive integers, not 5"),
    ({"dims": [2, "2"], "terms": []}, "state dims must be a list of positive integers"),
    ([{"dims": [2], "terms": []}], "a state file holds an object, not list"),
    ({"dims": [2, 2], "terms": []}, "state needs at least one term"),
    ({"dims": [2] * 70, "terms": [{"basis": [0] * 70, "re": 1.0}]}, "total dimension 1180591620717411303424 exceeds"),
    # JSON true and false are not digits or amplitudes
    (
        {"dims": [2, 2], "terms": [{"basis": [0, 0], "re": 1.0}, {"basis": [0, True], "re": 1.0}]},
        "state term 1: basis must be 2 integer digits",
    ),
    (
        {"dims": [2, 2], "terms": [{"basis": [0, 0], "re": 1.0}, {"basis": [1, 1], "re": True}]},
        "state term 1: 're' and 'im' must be numbers",
    ),
    (
        {"dims": [2, 2], "terms": [{"basis": [0, 0], "re": 1.0}, {"basis": [1, 1], "re": 10**400}]},
        "state term 1: 're' and 'im' must be numbers within the float range",
    ),
]
