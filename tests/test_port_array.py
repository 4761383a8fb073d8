"""Canonical graphs stored as breadth-first port arrays, against the frozen
word-keyed naming, disks and encoder of ``oracle``."""
import random

import pytest
from oracle import canonicalize as oracle_canonicalize
from oracle import disk_around as oracle_disk_around
from oracle import encode_graph as oracle_encode_graph

from cgd.codec import (
    ParseError,
    decode_graph,
    encode_graph,
    enumerate_canonical_graphs,
    enumerate_disks,
    read_code,
    render_tokens,
    write_code,
)
from cgd.corpus import flip_label_beyond, grid_graph, random_port_graph, sample_graph
from cgd.graph import (
    EPSILON,
    CayleyGraph,
    Disk,
    GraphError,
    PortGraph,
    canonicalize,
    disk_around,
    name_key,
)
from cgd.machine import label_with


def _corpus(seed=11, count=120):
    """Seeded random connected port graphs and their roots: degree 1-4,
    1-40 vertices, labels {0, 1}; the extra edges make self-loops and
    parallel edges."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_port_graph(rng, degree=rng.randint(1, 4), size=rng.randint(1, 40),
                                alphabet=(0, 1), extra=rng.choice((0.0, 0.5, 1.5)))


def _pointers(g, root, rng, k=3):
    others = sorted(g.vertices - {root})
    return [root] + rng.sample(others, min(k, len(others)))


def _same_views(got: CayleyGraph, want: CayleyGraph):
    assert got.degree == want.degree
    assert got.vertices == want.vertices
    assert got.edges == want.edges
    assert got.labels == want.labels
    assert got.port_map() == want.port_map()
    assert got.words == tuple(sorted(want.vertices, key=name_key))
    assert got == want and hash(got) == hash(want)


def test_the_corpus_has_self_loops_and_parallel_edges():
    loops = parallel = 0
    for g, _ in _corpus():
        ends = [tuple(sorted(v for v, _ in e)) for e in g.edges]
        loops += any(u == v for u, v in ends)
        parallel += len(set(ends)) < len(ends)
    assert loops >= 10 and parallel >= 10


def test_word_views_match_the_frozen_canonicalize():
    rng = random.Random(3)
    for g, root in _corpus():
        for p in _pointers(g, root, rng):
            _same_views(canonicalize(g, p), oracle_canonicalize(g, p))
        x = canonicalize(g, root)
        for w in rng.sample(x.words, min(3, len(x.words))):
            _same_views(canonicalize(x, w), oracle_canonicalize(x, w))


def test_encode_gives_the_frozen_tokens():
    rng = random.Random(5)
    for g, root in _corpus():
        for p in _pointers(g, root, rng):
            want = oracle_encode_graph(g, p, alphabet=(0, 1))
            assert encode_graph(canonicalize(g, p), alphabet=(0, 1)) == want


def test_encode_wants_a_canonical_graph():
    g = PortGraph(2, "ab", [(("a", 1), ("b", 2))], {"a": 0, "b": 1})
    with pytest.raises(GraphError, match="canonicalize it first"):
        encode_graph(g)


def test_decode_inverts_encode_with_equal_hashes():
    for g, root in _corpus():
        x = canonicalize(g, root)
        back = decode_graph(encode_graph(x))
        assert back == x and hash(back) == hash(x)
        _same_views(back, oracle_canonicalize(g, root))
        text = write_code(encode_graph(x, alphabet=(0, 1)))
        assert decode_graph(read_code(text)) == x


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_disks_match_the_frozen_disk_around_at_every_centre(r):
    for g, root in _corpus(count=40):
        x = canonicalize(g, root)
        for v in g.vertices:
            want = oracle_disk_around(g, v, r)
            got = disk_around(g, v, r)
            assert got == want and got.radius == r
            _same_views(got.graph, want.graph)
        for w in x.words:
            assert disk_around(x, w, r) == oracle_disk_around(x, w, r)


def test_a_port_graph_never_equals_the_cayley_graph_with_its_words():
    for g, root in _corpus(count=40):
        x = canonicalize(g, root)
        plain = PortGraph(x.degree, x.vertices, x.edges, x.labels)
        assert plain != x and x != plain
        assert len({plain, x}) == 2 and x not in {plain: 1} and plain not in {x: 1}
        again = PortGraph(x.degree, x.vertices, x.port_map().items(), x.labels)
        assert again == plain and hash(again) == hash(plain)
        assert CayleyGraph(x.degree, x.vertices, x.edges, x.labels) == x


def test_the_word_constructor_wants_least_words():
    x = sample_graph()
    assert CayleyGraph(x.degree, x.vertices, x.edges, x.labels) == x
    a, b = x.words[1], x.words[2]
    swap = {a: b, b: a}
    names = {v: swap.get(v, v) for v in x.vertices}
    edges = [((names[u], i), (names[v], j)) for (u, i), (v, j) in map(tuple, x.edges)]
    with pytest.raises(GraphError, match="least words"):
        CayleyGraph(x.degree, names.values(), edges, {names[v]: x.label(v) for v in x.vertices})
    with pytest.raises(GraphError, match="least words"):  # no vertex named by the empty word
        CayleyGraph(1, ["a"], [], {"a": 0})


def test_relabel_reuses_the_port_array():
    x = grid_graph(3, 3)
    vertices = x.vertices
    y = x.relabel(range(9))
    assert y.nbr is x.nbr and y.vertices is vertices
    assert y.lab == tuple(range(9)) and y != x
    assert y.labels == {w: i for i, w in enumerate(x.words)}
    with pytest.raises(GraphError):
        x.relabel([0, 1])
    flipped, depth = flip_label_beyond(x, 1, random.Random(0), (0, 1))
    assert flipped.nbr is x.nbr and depth > 1
    assert sum(a != b for a, b in zip(flipped.lab, x.lab)) == 1


def test_label_with_stamps_in_place_of_a_rebuild(graphs_built):
    from cgd.codec import encode_rule
    from cgd.library import identity_rule

    x = grid_graph(2, 2)
    desc = encode_rule(identity_rule(4, (0, 1)))
    graphs_built.clear()
    stamped = label_with(x, desc)
    assert len(graphs_built) == 1 and stamped.nbr is x.nbr
    assert [lbl.value for lbl in stamped.lab] == list(x.lab)


def test_disk_keys_hash_by_the_port_array():
    disks = enumerate_disks(2, (0, 1), 1)
    again = [Disk(CayleyGraph(d.graph.degree, d.graph.vertices, d.graph.edges,
                              d.graph.labels), 1) for d in disks]
    index = {d: i for i, d in enumerate(disks)}
    assert [index[d] for d in again] == list(range(len(disks)))


def test_render_refuses_a_label_outside_the_alphabet():
    with pytest.raises(ParseError, match="not in the alphabet"):
        render_tokens(("$", ("lbl", 7), ";"), (0, 1))
    assert render_tokens(("$", ("lbl", 1), ";", (1, 2), "$", ("lbl", 0), ";"), (0, 1)) \
        == "$1;(1,2)$0;"


def test_a_negative_enumeration_budget_is_refused():
    with pytest.raises(GraphError, match="nonnegative"):
        list(enumerate_canonical_graphs(1, (0,), max_ecc=1, budget=-1))
    with pytest.raises(GraphError, match="nonnegative"):
        enumerate_disks(1, (0,), 1, budget=-1)


def test_a_lone_vertex_and_the_empty_word():
    x = canonicalize(PortGraph(3, ["v"], [(("v", 1), ("v", 3))], {"v": 1}), "v")
    assert x.nbr == (2, -1, 0) and x.lab == (1,) and x.words == (EPSILON,)
    assert x.edges == {frozenset(((EPSILON, 1), (EPSILON, 3)))}
