import numpy as np
import pytest

from entkit.builders import (
    cat_power,
    cat_state,
    chain_edges,
    codeword5,
    complete_graph_edges,
    embedded_cat,
    epr_between,
    epr_pair,
    eprs_chain,
    eprs_complete,
    eprs_graph,
    parse_named_state,
)
from entkit.entropy import entropy_vector
from entkit.states import make_state


def test_epr_pair_amplitudes():
    s = epr_pair()
    assert s.dims == (2, 2)
    assert abs(s.basis_amplitude((0, 0)) - 2**-0.5) < 1e-12
    assert abs(s.basis_amplitude((1, 1)) - 2**-0.5) < 1e-12
    assert abs(s.basis_amplitude((0, 1))) < 1e-12


def test_cat_state_support():
    s = cat_state(4)
    tensorized = s.as_tensor()
    assert abs(tensorized[0, 0, 0, 0] - 2**-0.5) < 1e-12
    assert abs(tensorized[1, 1, 1, 1] - 2**-0.5) < 1e-12
    assert np.count_nonzero(np.abs(s.amplitudes) > 1e-12) == 2


def test_ghz_is_threeparty_cat():
    ghz = parse_named_state("ghz")
    assert ghz.dims == (2, 2, 2)
    assert abs(ghz.overlap(make_state((2, 2, 2), [("000", 1), ("111", 1)])) - 1.0) < 1e-12


def test_embedded_cat_leaves_spectators_trivial():
    s = embedded_cat(5, (1, 3, 4))
    assert s.dims == (1, 2, 1, 2, 2)
    vec = entropy_vector(s)
    assert vec[(0,)] == pytest.approx(0.0, abs=1e-12)
    assert vec[(1,)] == pytest.approx(1.0, abs=1e-12)


def test_epr_between_dims():
    s = epr_between(4, 1, 3)
    assert s.dims == (1, 2, 1, 2)
    vec = entropy_vector(s)
    assert vec[(1,)] == pytest.approx(1.0, abs=1e-12)
    assert vec[(2,)] == pytest.approx(0.0, abs=1e-12)


def test_graph_edge_lists():
    assert complete_graph_edges(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert chain_edges(4) == [(0, 1), (1, 2), (2, 3)]


def test_eprs_complete_dims():
    s = eprs_complete(3)
    # each party holds one qubit per incident edge
    assert s.dims == (4, 4, 4)


def test_eprs_graph_matches_complete():
    a = eprs_graph(3, complete_graph_edges(3))
    b = eprs_complete(3)
    assert abs(abs(a.overlap(b)) - 1.0) < 1e-12


def test_cat_power_dims():
    s = cat_power(3, 2)
    assert s.dims == (4, 4, 4)
    vec = entropy_vector(s)
    assert vec[(0,)] == pytest.approx(2.0, abs=1e-12)


def test_codeword_shape():
    s = codeword5()
    assert s.dims == (2, 2, 2, 2, 2)
    # distance-2 property surfaces as exactly two bits across balanced cuts
    vec = entropy_vector(s)
    assert vec[(1, 2)] == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize(
    "name,dims",
    [
        ("epr", (2, 2)),
        ("ghz", (2, 2, 2)),
        ("3epr", (4, 4, 4)),
        ("cat4", (2, 2, 2, 2)),
        ("eprs4", (8, 8, 8, 8)),
        ("chain3", (2, 4, 2)),
        ("2ghz", (4, 4, 4)),
        ("codeword5", (2, 2, 2, 2, 2)),
        ("epr(a,c)", (2, 1, 2)),
        ("epr(0,1,4)", (2, 2, 1, 1)),
    ],
)
def test_parse_named_state(name, dims):
    assert parse_named_state(name).dims == dims


def test_parse_named_state_file(tmp_path):
    from entkit.states import save_state

    path = str(tmp_path / "epr.json")
    save_state(epr_pair(), path)
    assert parse_named_state(path).dims == (2, 2)


def test_parse_named_state_rejects_unknown():
    with pytest.raises(ValueError):
        parse_named_state("not-a-state")
