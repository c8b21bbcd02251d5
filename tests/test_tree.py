import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_ot import (
    DimensionMismatchError,
    EdgeNotInGraphError,
    InputFormatError,
    NotATreeError,
    SpanningTree,
    build_from_edge_list,
    five_node_example,
    kruskal,
    lattice_1d_periodic,
    lattice_2d_periodic,
    random_connected_graph,
    read_tree_file,
)


@pytest.fixture
def five_node():
    return five_node_example()


def tree_t1(g):
    return SpanningTree(g, [(1, 2), (2, 3), (3, 4), (4, 5)])


def tree_t2(g):
    return SpanningTree(g, [(2, 3), (3, 4), (4, 5), (1, 5)])


def tree_t3(g):
    return SpanningTree(g, [(2, 3), (1, 3), (1, 5), (4, 5)])


def test_kruskal_spans_five_node_graph(five_node):
    t = kruskal(five_node)
    assert len(t.tree_edges) == 4
    assert set(t.tree_edges) <= set(five_node.edges)


def test_kruskal_deterministic(five_node):
    assert kruskal(five_node).tree_edges == kruskal(five_node).tree_edges


def test_kruskal_triangle_tie_break():
    g = build_from_edge_list([(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
    assert kruskal(g).tree_edges == [(1, 2), (1, 3)]


def test_kruskal_path_graph_is_identity():
    g = build_from_edge_list([(1, 2, 1.0), (2, 3, 1.0)])
    assert kruskal(g).tree_edges == [(1, 2), (2, 3)]


def test_kruskal_prefers_light_edges():
    # heavy chord is skipped when the light cycle spans already
    g = build_from_edge_list([(1, 2, 1.0), (2, 3, 1.0), (1, 3, 5.0)])
    assert kruskal(g).tree_edges == [(1, 2), (2, 3)]


def test_tree_validation_rejects_cycles(five_node):
    with pytest.raises(NotATreeError):
        SpanningTree(five_node, [(1, 2), (2, 3), (1, 3), (4, 5)])


def test_tree_validation_rejects_wrong_count(five_node):
    with pytest.raises(NotATreeError):
        SpanningTree(five_node, [(1, 2), (2, 3), (3, 4)])


def test_tree_validation_rejects_foreign_edges(five_node):
    with pytest.raises(EdgeNotInGraphError):
        SpanningTree(five_node, [(1, 2), (2, 3), (3, 4), (2, 5)])


def test_expand_zero_is_zero(five_node):
    t = tree_t1(five_node)
    np.testing.assert_array_equal(
        t.expand_velocities(np.zeros(4)), np.zeros(five_node.edge_count)
    )


def test_expand_path_tree_all_ones(five_node):
    # unit flow along the path 1-2-3-4-5 accumulates along chords: the
    # potential rises by 1 per hop, so v_(1,3) = 2 and v_(1,5) = 4
    t = tree_t1(five_node)
    v = t.expand_velocities(np.ones(4))
    expanded = dict(zip(five_node.edges, v))
    assert expanded[(1, 3)] == pytest.approx(2.0)
    assert expanded[(1, 5)] == pytest.approx(4.0)
    assert expanded[(1, 2)] == expanded[(2, 3)] == pytest.approx(1.0)


def test_expand_is_homogeneous(five_node):
    t = tree_t3(five_node)
    v = np.array([0.3, -1.2, 0.7, 2.0])
    np.testing.assert_allclose(
        t.expand_velocities(2.0 * v), 2.0 * t.expand_velocities(v)
    )


def test_expand_reproduces_tree_edges(five_node):
    t = tree_t2(five_node)
    v = np.array([0.5, -0.25, 1.5, -2.0])
    expanded = dict(zip(five_node.edges, t.expand_velocities(v)))
    for f, vf in zip(t.tree_edges, v):
        assert expanded[f] == vf


def test_expand_keeps_tiny_tree_velocities_beside_large_ones(five_node):
    # the potentials at both ends of (2, 3) share all of 1e-9's digits
    t = tree_t2(five_node)
    v = np.array([3e7, 1e-9, -1.7e8, 2.3e-11])
    expanded = t.expand_velocities(np.stack([v, -v]))
    for f, vf in zip(t.tree_edges, v):
        np.testing.assert_array_equal(expanded[:, five_node.edges.index(f)], [vf, -vf])


def test_expand_stacked_levels(five_node):
    t = tree_t1(five_node)
    v = np.arange(8.0).reshape(2, 4)
    out = t.expand_velocities(v)
    assert out.shape == (2, five_node.edge_count)
    np.testing.assert_array_equal(out[0], t.expand_velocities(v[0]))


def test_expand_rejects_bad_shape(five_node):
    t = tree_t1(five_node)
    with pytest.raises(DimensionMismatchError):
        t.expand_velocities(np.zeros(3))


def test_recover_potential_zero(five_node):
    t = tree_t1(five_node)
    np.testing.assert_array_equal(t.recover_potential(np.zeros(4)), np.zeros(5))


def test_recover_potential_path_telescopes():
    g = build_from_edge_list([(1, 2, 1.0), (2, 3, 1.0)])
    t = kruskal(g)
    np.testing.assert_allclose(t.recover_potential(np.array([1.0, 2.0])), [0.0, 1.0, 3.0])


def test_recover_potential_respects_weights():
    g = build_from_edge_list([(1, 2, 4.0)])
    t = kruskal(g)
    # v = (S_2 - S_1) sqrt(omega), so S_2 = v / 2
    np.testing.assert_allclose(t.recover_potential(np.array([1.0])), [0.0, 0.5])


@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=40, deadline=None)
def test_gauge_consistency_on_random_graphs(n, graph_seed, v_seed):
    # expanded velocities must equal (S_j - S_i) sqrt(omega) for the
    # potential recovered from the same tree velocities
    g = random_connected_graph(n, 0.5, graph_seed)
    t = kruskal(g)
    rng = np.random.Generator(np.random.PCG64(v_seed))
    v_tree = rng.normal(0.0, 2.0, n - 1)
    s = t.recover_potential(v_tree)
    expanded = t.expand_velocities(v_tree)
    for (i, j), ve, w in zip(g.edges, expanded, g.weights):
        assert ve == pytest.approx((s[j - 1] - s[i - 1]) * np.sqrt(w), abs=1e-12)


def weighted_graph_with_path(n, seed):
    """A random connected graph with random weights that contains the path
    through a random order of its nodes; returns the graph and that path."""
    rng = np.random.Generator(np.random.PCG64(seed))
    order = [int(k) + 1 for k in rng.permutation(n)]
    path = [(min(a, b), max(a, b)) for a, b in zip(order[:-1], order[1:])]
    edges = sorted(set(random_connected_graph(n, 0.3, seed).edges) | set(path))
    weights = rng.uniform(0.1, 10.0, len(edges))
    graph = build_from_edge_list([(i, j, w) for (i, j), w in zip(edges, weights)])
    return graph, path


def dense_gauge(tree):
    """T of the module docstring as a dense matrix: row f holds sqrt(w_f) at
    the head of tree edge f and -sqrt(w_f) at its tail, node N's column
    dropped."""
    n = tree.graph.node_count
    t = np.zeros((n - 1, n))
    f = np.arange(n - 1)
    t[f, tree.head] = tree.sqrt_weights
    t[f, tree.tail] = -tree.sqrt_weights
    return t[:, :-1]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [2, 7, 16])
def test_gauge_matches_dense_solve(n, seed):
    graph, path = weighted_graph_with_path(n, seed)
    rng = np.random.Generator(np.random.PCG64(seed + 100))
    for tree in (kruskal(graph), SpanningTree(graph, path)):
        v = rng.normal(0.0, 2.0, (5, n - 1))
        s = np.linalg.solve(dense_gauge(tree), v.T).T
        s = np.hstack([s, np.zeros((5, 1))])
        scale = np.abs(s).max()
        want = graph.sqrt_weights * (s[:, graph.head] - s[:, graph.tail])
        for got in (tree.expand_velocities(v), [tree.expand_velocities(r) for r in v]):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * scale)
        for base in range(1, n + 1):
            shifted = s - s[:, base - 1 : base]
            potential = tree.recover_potential(v, base=base)
            assert potential.shape == (5, n)
            assert np.all(potential[:, base - 1] == 0.0)
            np.testing.assert_allclose(potential, shifted, rtol=0.0, atol=1e-13 * scale)
            for k in range(5):
                np.testing.assert_array_equal(
                    tree.recover_potential(v[k], base=base), potential[k]
                )
            velocities = tree.sqrt_weights * (
                potential[:, tree.head] - potential[:, tree.tail]
            )
            np.testing.assert_allclose(velocities, v, rtol=0.0, atol=1e-12 * np.abs(v).max())


@pytest.mark.parametrize(
    "graph, nnz",
    [
        (lattice_1d_periodic(256, 1.0), 510),
        (lattice_2d_periodic(16, 16, 4.0, -1.0), 4352),
        (five_node_example(), None),
        (weighted_graph_with_path(12, 5)[0], None),
    ],
    ids=["map1d-n256 ring", "16x16 grid", "five-node example", "weighted"],
)
def test_expansion_is_the_expansion_of_unit_vectors(graph, nnz):
    tree = kruskal(graph)
    n1 = graph.node_count - 1
    expansion = tree.expansion
    assert expansion.shape == (graph.edge_count, n1)
    unit = np.array([tree.expand_velocities(e) for e in np.eye(n1)]).T
    np.testing.assert_array_equal(expansion.toarray(), unit)
    assert expansion.nnz == np.count_nonzero(unit)
    if nnz is not None:
        assert expansion.nnz == nnz


def test_read_tree_file(tmp_path, five_node):
    path = tmp_path / "tree.csv"
    path.write_text("i,j\n2,3\n3,4\n4,5\n1,5\n")
    t = read_tree_file(path, five_node)
    assert t.tree_edges == [(1, 5), (2, 3), (3, 4), (4, 5)]


def test_read_tree_file_rejects_non_tree(tmp_path, five_node):
    path = tmp_path / "tree.csv"
    path.write_text("i,j\n1,2\n2,3\n1,3\n4,5\n")
    with pytest.raises(NotATreeError):
        read_tree_file(path, five_node)


def test_read_tree_file_weight_column_is_ignored(tmp_path, five_node):
    plain = tmp_path / "plain.csv"
    plain.write_text("i,j\n2,3\n3,4\n4,5\n1,5\n")
    weighted = tmp_path / "weighted.csv"
    weighted.write_text("i,j,omega\n2,3,7.5\n3,4,1e-3\n4,5,1\n1,5,0.25\n")
    assert (
        read_tree_file(weighted, five_node).tree_edges
        == read_tree_file(plain, five_node).tree_edges
    )


def test_read_tree_file_rejects_non_numeric_weight(tmp_path, five_node):
    path = tmp_path / "tree.csv"
    path.write_text("i,j,omega\n2,3,1.0\n3,4,heavy\n4,5,1.0\n1,5,1.0\n")
    with pytest.raises(InputFormatError, match=r":3"):
        read_tree_file(path, five_node)


@pytest.mark.parametrize(
    "text", ["i,j\n2,3\n3,4,1.0\n", "i,j,omega\n2,3,1.0\n3,4\n"]
)
def test_read_tree_file_rejects_wrong_field_count(tmp_path, five_node, text):
    path = tmp_path / "tree.csv"
    path.write_text(text)
    with pytest.raises(InputFormatError, match=r":3"):
        read_tree_file(path, five_node)


def test_read_tree_file_names_accepted_headers(tmp_path, five_node):
    path = tmp_path / "tree.csv"
    path.write_text("a,b\n2,3\n")
    with pytest.raises(InputFormatError, match=r"'i,j' or 'i,j,omega'"):
        read_tree_file(path, five_node)
