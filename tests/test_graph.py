import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_ot import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    InputFormatError,
    Lattice1D,
    Lattice2D,
    NodeOutOfRangeError,
    NonSquareGridError,
    NonpositiveWeightError,
    SelfLoopError,
    TooFewNodesError,
    WeightedGraph,
    build_from_edge_list,
    complete_graph,
    dumbbell,
    lattice_1d_periodic,
    lattice_2d_periodic,
    read_edge_list,
)


def degrees(g):
    """Edges at each node, from the incidence operators."""
    return np.asarray((g.tail_matrix + g.head_matrix).sum(axis=1)).ravel()


def test_single_edge_graph():
    g = build_from_edge_list([(1, 2, 1.0)])
    assert g.node_count == 2
    assert g.edge_count == 1
    assert g.edges == [(1, 2)]


def test_triangle_every_node_has_two_neighbors():
    g = build_from_edge_list([(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)])
    np.testing.assert_array_equal(degrees(g), [2, 2, 2])


def test_five_node_cycle_with_chord():
    edges = [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0), (5, 1, 1.0), (1, 3, 1.0)]
    g = build_from_edge_list(edges)
    assert g.node_count == 5
    assert g.edge_count == 6
    assert g.has_edge(1, 5)  # stored canonically even though given as (5, 1)


def test_edges_stored_in_canonical_sorted_order():
    g = build_from_edge_list([(3, 1, 2.0), (2, 1, 1.0)])
    assert g.edges == [(1, 2), (1, 3)]
    assert g.weights[g.edge_position(1, 3)] == 2.0
    assert g.weights[g.edge_position(3, 1)] == 2.0


def test_duplicate_with_equal_weight_merges():
    g = build_from_edge_list([(1, 2, 1.5), (2, 1, 1.5), (2, 3, 1.0)])
    assert g.edge_count == 2


def test_duplicate_with_conflicting_weight_rejected():
    with pytest.raises(DuplicateEdgeError):
        build_from_edge_list([(1, 2, 1.0), (2, 1, 2.0), (2, 3, 1.0)])


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        build_from_edge_list([(1, 1, 1.0), (1, 2, 1.0)])


def test_nonpositive_weight_rejected():
    with pytest.raises(NonpositiveWeightError):
        build_from_edge_list([(1, 2, 0.0)])
    with pytest.raises(NonpositiveWeightError):
        build_from_edge_list([(1, 2, -1.0)])


def test_disconnected_graph_rejected():
    with pytest.raises(DisconnectedGraphError):
        build_from_edge_list([(1, 2, 1.0), (3, 4, 1.0)])


def test_node_out_of_range_rejected():
    with pytest.raises(NodeOutOfRangeError):
        WeightedGraph(2, [(1, 3)], [1.0])


def test_single_node_rejected():
    with pytest.raises(TooFewNodesError):
        WeightedGraph(1, [], [])


def test_neighbor_symmetry():
    g = dumbbell(3, 4)
    for i in range(1, g.node_count + 1):
        for j in range(1, g.node_count + 1):
            assert g.has_edge(i, j) == g.has_edge(j, i)


def test_lattice_1d_weight_is_inverse_spacing_squared():
    g = lattice_1d_periodic(64, 4.0)
    assert g.node_count == 64
    assert g.edge_count == 64
    # delta x = 1/16, so omega = 256 on every edge
    assert np.all(g.weights == 256.0)


def test_lattice_1d_unit_domain():
    g = lattice_1d_periodic(128, 1.0)
    assert np.all(g.weights == 128.0**2)
    assert isinstance(g.geometry, Lattice1D)
    assert g.geometry.spacing == pytest.approx(1.0 / 128.0)


def test_lattice_1d_triangle():
    g = lattice_1d_periodic(3, 3.0)
    assert g.edge_count == 3
    assert np.all(g.weights == 1.0)


def test_lattice_1d_too_small():
    with pytest.raises(TooFewNodesError):
        lattice_1d_periodic(2, 1.0)


def test_lattice_1d_coordinates():
    g = lattice_1d_periodic(4, 2.0, origin=-1.0)
    np.testing.assert_allclose(g.geometry.coordinates(), [-1.0, -0.5, 0.0, 0.5])


def test_lattice_2d_counts_and_weights():
    g = lattice_2d_periodic(3, 3, 3.0)
    assert g.node_count == 9
    assert g.edge_count == 18
    assert np.all(g.weights == 1.0)


def test_lattice_2d_torus_regular_degree():
    g = lattice_2d_periodic(4, 4, 4.0)
    np.testing.assert_array_equal(degrees(g), np.full(16, 4))


def test_lattice_2d_node_labels_row_major():
    g = lattice_2d_periodic(3, 3, 3.0)
    xy = g.geometry.coordinates()
    # node 1 at (0,0), node 2 at (dx,0), node 4 at (0,dx)
    np.testing.assert_allclose(xy[0], [0.0, 0.0])
    np.testing.assert_allclose(xy[1], [1.0, 0.0])
    np.testing.assert_allclose(xy[3], [0.0, 1.0])


def test_lattice_2d_rejects_rectangles():
    with pytest.raises(NonSquareGridError):
        lattice_2d_periodic(3, 4, 3.0)


def test_dumbbell_bridge_edge():
    g = dumbbell(4, 4)
    assert g.node_count == 8
    assert g.has_edge(4, 5)
    # exactly one edge crosses the cut
    crossing = [e for e in g.edges if (e[0] <= 4) != (e[1] <= 4)]
    assert crossing == [(4, 5)]


def test_dumbbell_minimal():
    g = dumbbell(2, 2)
    assert g.edges == [(1, 2), (2, 3), (3, 4)]


def test_dumbbell_edge_count_formula():
    for left, right in ((2, 3), (3, 3), (4, 5)):
        g = dumbbell(left, right)
        expected = left * (left - 1) // 2 + right * (right - 1) // 2 + 1
        assert g.edge_count == expected


def test_complete_graph_counts():
    assert complete_graph(2).edge_count == 1
    assert complete_graph(5).edge_count == 10
    g = complete_graph(10)
    assert g.edge_count == 45
    np.testing.assert_array_equal(degrees(g), np.full(10, 9))


def test_incidence_columns_sum_to_zero():
    g = dumbbell(3, 3)
    inc = g.incidence.toarray()
    np.testing.assert_array_equal(inc.sum(axis=0), np.zeros(g.edge_count))
    # tail gets +1, head gets -1
    for col, (i, j) in enumerate(g.edges):
        assert inc[i - 1, col] == 1.0
        assert inc[j - 1, col] == -1.0


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_random_graph_weight_query_symmetric(n, seed):
    from graph_ot import random_connected_graph

    g = random_connected_graph(n, 0.4, seed)
    for i, j in g.edges:
        assert g.weights[g.edge_position(i, j)] == g.weights[g.edge_position(j, i)]


def test_edge_list_round_trip(tmp_path):
    entries = [(1, 2, 0.1), (2, 3, 123.456789012345), (1, 3, 1e-7)]
    g = build_from_edge_list(entries)
    path = tmp_path / "graph.csv"
    path.write_text("i,j,omega\n" + "".join(f"{i},{j},{w!r}\n" for i, j, w in entries))
    g2 = read_edge_list(path)
    assert g2.edges == g.edges
    np.testing.assert_array_equal(g2.weights, g.weights)


def test_edge_list_comments_and_blanks(tmp_path):
    path = tmp_path / "graph.csv"
    path.write_text("# comment\ni,j,omega\n\n1,2,1.0\n# trailing\n2,3,2.0\n")
    g = read_edge_list(path)
    assert g.edges == [(1, 2), (2, 3)]


def test_edge_list_requires_header(tmp_path):
    path = tmp_path / "graph.csv"
    path.write_text("1,2,1.0\n")
    with pytest.raises(InputFormatError):
        read_edge_list(path)


def test_edge_list_reports_bad_line_number(tmp_path):
    path = tmp_path / "graph.csv"
    path.write_text("i,j,omega\n1,2,1.0\n1,x,1.0\n")
    with pytest.raises(InputFormatError, match=r":3"):
        read_edge_list(path)


def test_edge_list_wrong_field_count(tmp_path):
    path = tmp_path / "graph.csv"
    path.write_text("i,j,omega\n1,2\n")
    with pytest.raises(InputFormatError):
        read_edge_list(path)


def test_edge_list_names_accepted_header(tmp_path):
    path = tmp_path / "graph.csv"
    path.write_text("i,j\n1,2\n")
    with pytest.raises(InputFormatError, match=r"graph\.csv:1: .*'i,j,omega'"):
        read_edge_list(path)
