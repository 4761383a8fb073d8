import random
from fractions import Fraction

import pytest
from conftest import bfs_distances, exhaustive_min_names, layered_min_names, rename_by

from cgd.corpus import (
    cycle_graph,
    divergent_pair,
    flip_label_beyond,
    grid_graph,
    path_graph,
    random_graph,
    random_port_graph,
    sample_graph,
)
from cgd.graph import (
    EPSILON,
    CayleyGraph,
    DisconnectedInput,
    Disk,
    DyadicDistance,
    GraphError,
    InconsistentUnion,
    NameSetOverlap,
    NoSuchPath,
    PortConflict,
    PortGraph,
    canonicalize,
    check_path_conditions,
    consistent,
    disk,
    disk_around,
    distance,
    eccentricity,
    glue_all,
    inverse_word,
    name_key,
    shift,
    walk,
)


def test_inverse_word_involution():
    w = ((1, 2), (3, 1), (2, 2))
    assert inverse_word(w) == ((2, 2), (1, 3), (2, 1))
    assert inverse_word(inverse_word(w)) == w
    assert inverse_word(()) == ()


def test_name_key_totally_orders_mixed_kinds():
    names = [(), ((1, 1),), frozenset({((), 0)}), "v3", frozenset({(((1, 2),), 1)})]
    ordered = sorted(names, key=name_key)
    # words first, then name sets, then raw names
    assert ordered[0] == ()
    assert isinstance(ordered[-1], str)
    assert len({name_key(n) for n in names}) == len(names)


# --- construction validation -------------------------------------------------

def test_port_conflict_rejected():
    with pytest.raises(PortConflict):
        PortGraph(2, ["a", "b", "c"],
                  [(("a", 1), ("b", 1)), (("a", 1), ("c", 1))],
                  {"a": 0, "b": 0, "c": 0})


def test_label_cover_enforced():
    with pytest.raises(GraphError):
        PortGraph(1, ["a"], [], {})
    with pytest.raises(GraphError):
        PortGraph(1, ["a"], [], {"a": 0, "b": 0})


def test_port_range_and_degree_checked():
    with pytest.raises(GraphError):
        PortGraph(2, ["a", "b"], [(("a", 3), ("b", 1))], {"a": 0, "b": 0})
    with pytest.raises(GraphError):
        PortGraph(0, ["a"], [], {"a": 0})


def test_name_set_vertices_must_be_disjoint():
    u = frozenset({((), 0), (((1, 1),), 0)})
    v = frozenset({(((1, 1),), 0), (((2, 2),), 1)})
    with pytest.raises(NameSetOverlap):
        PortGraph(2, [u, v], [], {u: 0, v: 0})


def test_degenerate_edge_rejected():
    # an edge needs two distinct port slots
    with pytest.raises(GraphError):
        PortGraph(2, ["a"], [(("a", 1), ("a", 1))], {"a": 0})


# --- canonical naming --------------------------------------------------------

def test_sample_graph_names_frozen():
    x = sample_graph()
    b, c, e = ((1, 1),), ((3, 2),), ((1, 1), (3, 2))
    assert x.vertices == {EPSILON, b, c, e}
    assert x.labels == {EPSILON: 1, b: 0, c: 0, e: 1}
    assert frozenset({(EPSILON, 1), (b, 1)}) in x.edges
    assert frozenset({(c, 1), (e, 1)}) in x.edges
    assert len(x.edges) == 5


def test_every_canonical_name_walks_to_its_vertex():
    for seed in range(30):
        x = random_graph(seed, degree=3, size=14)
        for v in x.vertices:
            assert walk(x, v) == v


@pytest.mark.parametrize("degree,size", [(1, 2), (2, 9), (3, 14), (4, 25)])
def test_canonical_names_match_layered_oracle(degree, size):
    for seed in range(40):
        rng = random.Random((degree, size, seed).__hash__())
        g, root = random_port_graph(rng, degree=degree, size=size)
        expected = rename_by(g, layered_min_names(g, root), CayleyGraph)
        assert canonicalize(g, root) == expected


def test_canonical_names_match_exhaustive_oracle():
    for seed in range(60):
        rng = random.Random(1000 + seed)
        g, root = random_port_graph(rng, degree=3, size=6)
        expected = exhaustive_min_names(g, root, max_len=6)
        got = canonicalize(g, root)
        assert got.vertices == set(expected.values())
        assert all(got.label(expected[v]) == g.label(v) for v in g.vertices)


def test_canonical_form_invariant_under_renaming():
    for seed in range(40):
        rng = random.Random(seed)
        g, root = random_port_graph(rng, degree=3, size=12)
        perm = list(range(len(g.vertices)))
        rng.shuffle(perm)
        names = {v: f"w{perm[i]}" for i, v in enumerate(sorted(g.vertices))}
        assert canonicalize(g, root) == canonicalize(rename_by(g, names, PortGraph),
                                                     names[root])


def test_canonicalize_is_identity_on_canonical_input():
    x = grid_graph(3, 2)
    assert canonicalize(x, EPSILON) is x


def test_single_vertex_graphs():
    x = canonicalize(PortGraph(2, ["a"], [], {"a": 5}), "a")
    assert x.vertices == {EPSILON}
    assert x.edges == frozenset()
    loop = cycle_graph(1)
    assert loop.vertices == {EPSILON}
    assert loop.edges == {frozenset({(EPSILON, 1), (EPSILON, 2)})}


def test_disconnected_input_rejected():
    g = PortGraph(2, ["a", "b"], [], {"a": 0, "b": 0})
    with pytest.raises(DisconnectedInput):
        canonicalize(g, "a")


def test_walk_and_errors():
    x = sample_graph()
    assert walk(x, ((1, 1), (3, 2))) == ((1, 1), (3, 2))
    with pytest.raises(NoSuchPath):
        walk(x, ((2, 1),))  # pointer's port 2 is free
    with pytest.raises(NoSuchPath):
        walk(x, ((1, 2),))  # edge exists but enters port 1, not 2
    with pytest.raises(NoSuchPath):
        walk(x, (), start="nowhere")


def test_shift_roundtrip():
    for seed in range(25):
        x = random_graph(seed, degree=3, size=12)
        for v in sorted(x.vertices, key=name_key):
            y = shift(x, v)
            back = walk(y, inverse_word(v))
            assert shift(y, back) == x
    assert shift(x, EPSILON) == x


def test_shift_relocates_labels():
    x = path_graph(3, label=[7, 8, 9])
    y = shift(x, ((1, 2),))
    assert y.label(EPSILON) == 8
    assert sorted(y.labels.values()) == [7, 8, 9]


# --- disks -------------------------------------------------------------------

def _disk_by_edge_filter(x, center, r):
    """Oracle: the induced subgraph found by filtering the whole edge set."""
    inside = {v for v, k in bfs_distances(x, center).items() if k <= r}
    edges = [e for e in x.edges if all(v in inside for v, _ in e)]
    sub = PortGraph(x.degree, inside, edges, {v: x.label(v) for v in inside})
    return canonicalize(sub, center)


def test_disk_keeps_names_and_induces_edges():
    graphs = [random_graph(seed, degree=4, size=20) for seed in range(30)]
    graphs += [cycle_graph(1), cycle_graph(2)]  # self-loop, parallel edges
    for x in graphs:
        dist = bfs_distances(x, EPSILON)
        for r in range(4):
            d = disk(x, r)
            inside = {v for v, k in dist.items() if k <= r}
            assert d.graph.vertices == inside
            assert d.graph.edges == {e for e in x.edges
                                     if all(v in inside for v, _ in e)}
            assert all(d.graph.label(v) == x.label(v) for v in inside)
            assert d.radius == r
            for v in x.vertices:
                assert disk_around(x, v, r).graph == _disk_by_edge_filter(x, v, r)


def test_disk_of_full_radius_is_whole_graph():
    x = random_graph(3, degree=3, size=15)
    assert disk(x, eccentricity(x)).graph == x


def test_radius_zero_disk_keeps_self_loops():
    x = cycle_graph(1, label=3)
    d = disk(x, 0)
    assert d.graph == x


def test_disk_around_agrees_with_shift_then_disk():
    for seed in range(15):
        x = random_graph(seed, degree=3, size=14)
        for v in sorted(x.vertices, key=name_key):
            for r in (0, 1, 2):
                assert disk_around(x, v, r) == disk(shift(x, v), r)


def test_disk_nesting():
    x = grid_graph(4, 4)
    for r in range(4):
        for s in range(r + 1):
            assert disk(disk(x, r).graph, s) == disk(x, s)


def test_disk_constructor_rejects_oversized_graph():
    with pytest.raises(GraphError):
        Disk(path_graph(4), 1)
    with pytest.raises(GraphError):
        Disk(path_graph(1), -1)


def test_eccentricity_matches_bfs():
    for seed in range(20):
        x = random_graph(seed, degree=3, size=18)
        assert eccentricity(x) == max(bfs_distances(x, EPSILON).values())


# --- metric ------------------------------------------------------------------

def test_distance_zero_iff_equal():
    x = grid_graph(3, 3)
    assert distance(x, grid_graph(3, 3)).is_zero
    assert not distance(x, grid_graph(3, 4)).is_zero


def test_distance_values_and_symmetry():
    graphs = [random_graph(s, degree=3, size=10) for s in range(10)]
    for x in graphs:
        for y in graphs:
            dxy, dyx = distance(x, y), distance(y, x)
            assert dxy == dyx
            assert dxy.value == 0 or dxy.value == Fraction(1, 2 ** dxy.radius)


def test_distance_is_ultrametric():
    graphs = [random_graph(s, degree=2, size=8) for s in range(12)]
    rng = random.Random(0)
    for _ in range(300):
        x, y, z = (graphs[rng.randrange(len(graphs))] for _ in range(3))
        assert distance(x, z).value <= max(distance(x, y).value,
                                           distance(y, z).value)


def test_distance_strictly_below_threshold_iff_disks_agree():
    for seed in range(20):
        for k in (0, 1, 2):
            x, y = divergent_pair(seed, k=k, degree=3, size=12)
            for r in range(4):
                agree = disk(x, r) == disk(y, r)
                assert agree == (distance(x, y) < Fraction(1, 2 ** r))


def test_label_flip_distance_is_exactly_dyadic_in_depth():
    rng = random.Random(7)
    for seed in range(20):
        x = random_graph(seed, degree=3, size=16)
        hit = flip_label_beyond(x, 1, rng, alphabet=(0, 1))
        if hit is None:
            continue
        y, depth = hit
        assert distance(x, y).radius == depth


def test_known_distances():
    # cycles of length 2k and 2k + 2 first differ when the short one closes up
    for k in (2, 3, 4, 5):
        assert distance(cycle_graph(2 * k), cycle_graph(2 * k + 2)).radius == k
    assert distance(grid_graph(3, 3), grid_graph(4, 4)).radius == 3
    assert distance(cycle_graph(1, label=0), cycle_graph(1, label=1)).radius == 0


def test_dyadic_distance_comparisons():
    d = DyadicDistance(3)
    assert d == Fraction(1, 8) and d <= 0.2 and d > Fraction(1, 16)
    assert DyadicDistance(None) < d
    assert DyadicDistance(None).value == 0
    assert DyadicDistance(3) == DyadicDistance(3)


# --- gluing ------------------------------------------------------------------

def _ns(*elems):
    return frozenset(elems)


def _g(degree, spec, labels):
    return PortGraph(degree, list(labels), spec, labels)


def test_consistent_overlap_and_union():
    u0 = _ns(((), 0))
    u1 = _ns((((1, 1),), 0))
    u1b = _ns((((1, 1),), 0), (((2, 2),), 1))
    g = _g(2, [((u0, 1), (u1, 1))], {u0: 0, u1: 1})
    h = _g(2, [], {u1b: 1})
    verdict = consistent(g, h)
    assert verdict.ok and verdict.nonempty
    merged = glue_all([g, h])
    big = u1 | u1b
    assert merged.vertices == {u0, big}
    assert merged.label(big) == 1
    assert frozenset({(u0, 1), (big, 1)}) in merged.edges


def test_consistent_reports_empty_overlap():
    g = _g(2, [], {_ns(((), 0)): 0})
    h = _g(2, [], {_ns((((3, 3),), 0)): 0})
    verdict = consistent(g, h)
    assert verdict.ok and not verdict.nonempty


def test_union_rejects_label_clash():
    shared = _ns(((), 0))
    g = _g(2, [], {shared: 0})
    h = _g(2, [], {shared: 1})
    assert not consistent(g, h).ok
    with pytest.raises(InconsistentUnion):
        glue_all([g, h])


def test_union_rejects_port_double_booking():
    a, b, c = _ns(((), 0)), _ns((((1, 1),), 0)), _ns((((2, 2),), 0))
    g = _g(2, [((a, 1), (b, 1))], {a: 0, b: 0})
    h = _g(2, [((a, 1), (c, 1))], {a: 0, c: 0})
    assert not consistent(g, h).ok
    with pytest.raises(InconsistentUnion):
        glue_all([g, h])


def test_union_accepts_shared_edge():
    a, b = _ns(((), 0)), _ns((((1, 1),), 0))
    g = _g(2, [((a, 1), (b, 1))], {a: 0, b: 0})
    h = _g(2, [((a, 1), (b, 1))], {a: 0, b: 0})
    assert glue_all([g, h]) == g


def test_glue_all_transitive_conflict():
    # parts pairwise consistent in isolation still clash once chained together
    a = _ns(((), 0), (((1, 1),), 0))
    b = _ns((((1, 1),), 0), (((2, 2),), 0))
    c = _ns(((), 0))
    d = _ns((((2, 2),), 0))
    p1 = _g(2, [], {a: 0})
    p2 = _g(2, [], {b: 0})
    p3 = _g(2, [((c, 1), (d, 1))], {c: 0, d: 0})
    with pytest.raises(InconsistentUnion):
        # a and b chain c and d into one vertex; its port 1 then loops onto itself
        glue_all([p1, p2, p3])


def test_glue_all_order_independent():
    elems = [_ns((((i, i),), 0), (((i + 1, i + 1),), 0)) for i in range(1, 4)]
    parts = [_g(4, [], {e: 0}) for e in elems]
    ref = glue_all(parts)
    for seed in range(6):
        shuffled = parts[:]
        random.Random(seed).shuffle(shuffled)
        assert glue_all(shuffled) == ref
    assert len(ref.vertices) == 1


# --- path language sanity ----------------------------------------------------

def test_path_conditions_hold_on_corpus():
    for x in [sample_graph(), grid_graph(3, 2), cycle_graph(5),
              random_graph(11, degree=3, size=10)]:
        assert check_path_conditions(x, 4) == []
