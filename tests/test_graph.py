import copy
import pickle
import random
import re
from fractions import Fraction

import pytest
from conftest import (
    bfs_distances,
    check_path_conditions,
    exhaustive_min_names,
    inverse_word,
    layered_min_names,
    rename_by,
)
from oracle import classes_consistent as oracle_classes_consistent
from oracle import consistent as oracle_consistent
from oracle import glue_all as oracle_glue_all

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
    Consistency,
    DisconnectedInput,
    Disk,
    DyadicDistance,
    GraphError,
    InconsistentUnion,
    NoSuchPath,
    PortConflict,
    PortGraph,
    canonicalize,
    consistent,
    disk,
    disk_around,
    distance,
    eccentricity,
    from_port_array,
    glue_all,
    name_key,
    shift,
    walk,
)
from cgd.library import identity_rule, inflating_grid_rule, xor_label_rule
from cgd.rules import _normalized_image


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


def test_fixtures_refuse_a_label_list_of_the_wrong_length():
    with pytest.raises(GraphError, match="1 labels for 4 vertices"):
        grid_graph(2, 2, label=[0])
    with pytest.raises(GraphError, match="2 labels for 3 vertices"):
        cycle_graph(3, label=[0, 1])


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
    """Canonical names are as long as their distance from the pointer.

    Eccentricity, disk radii, the validator and the corpus builders all
    read distances off name lengths, so this holds for ``canonicalize``
    and for ``disk_around`` at every centre and radius.
    """
    for seed in range(20):
        x = random_graph(seed, degree=3, size=18)
        assert eccentricity(x) == max(bfs_distances(x, EPSILON).values())
    for seed in range(24):
        degree = 2 + seed % 3
        g, root = random_port_graph(random.Random(seed), degree=degree, size=16)
        x = canonicalize(g, root)
        assert {v: len(v) for v in x.vertices} == bfs_distances(x, EPSILON)
        for v in x.vertices:
            ball = bfs_distances(x, v)
            for r in range(4):
                d = disk_around(x, v, r).graph
                assert {w: len(w) for w in d.vertices} == bfs_distances(d, EPSILON)
                assert ({walk(x, w, start=v): len(w) for w in d.vertices}
                        == {u: k for u, k in ball.items() if k <= r})


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


def test_dyadic_distance_copies_keep_the_radius():
    d = DyadicDistance(3)
    for c in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert type(c) is DyadicDistance and c.radius == 3 and c == d


# --- gluing ------------------------------------------------------------------

def _ns(*elems):
    return frozenset(elems)


def _g(degree, spec, labels):
    return PortGraph(degree, list(labels), spec, labels)


def _int_form(parts):
    """Name-set parts as ``glue_all``'s input.

    Elements are numbered in order of first sight.  Vertices and edges
    are taken in the order the frozen glue reads them, so that both
    meet the same clash first.
    """
    number, elems, joins, labels, ends = {}, [], [], [], []
    for g in parts:
        d = g.degree
        k = {}
        for v in g.vertices:
            k[v] = len(elems)
            first, *rest = (number.setdefault(e, len(number)) for e in v)
            elems.append(first)
            joins += [(k[v], e) for e in rest]
            labels.append(g.label(v))
        for e in g.edges:
            (u, a), (v, b) = tuple(e)
            ends += (k[u] * d + a - 1, k[v] * d + b - 1)
    return number, elems, joins, labels, ends


def _glue_names(parts):
    """``glue_all`` on the int form of name-set parts, read back as a graph
    whose vertices are the union of their classes' name sets."""
    d = parts[0].degree
    number, elems, joins, labels, ends = _int_form(parts)
    nbr, lab, cls = glue_all(d, elems, labels, ends, joins)
    elem = {i: e for e, i in number.items()}
    members = [set() for _ in lab]
    for k, e in [*enumerate(elems), *joins]:
        members[cls[k]].add(elem[e])
    name = [frozenset(m) for m in members]
    edges = [((name[s // d], s % d + 1), (name[t // d], t % d + 1))
             for s, t in enumerate(nbr) if t >= 0]
    return PortGraph(d, name, edges, dict(zip(name, lab)))


def _witness(glue, parts):
    with pytest.raises(InconsistentUnion) as info:
        glue(parts)
    return str(info.value)


def test_consistent_overlap_and_union():
    u0 = _ns(((), 0))
    u1 = _ns((((1, 1),), 0))
    u1b = _ns((((1, 1),), 0), (((2, 2),), 1))
    g = _g(2, [((u0, 1), (u1, 1))], {u0: 0, u1: 1})
    h = _g(2, [], {u1b: 1})
    verdict = consistent(g, h)
    assert verdict.ok and verdict.nonempty
    merged = _glue_names([g, h])
    big = u1 | u1b
    assert merged.vertices == {u0, big}
    assert merged.label(big) == 1
    assert frozenset({(u0, 1), (big, 1)}) in merged.edges
    assert merged == oracle_glue_all([g, h])


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
    assert (_witness(_glue_names, [g, h]) == _witness(oracle_glue_all, [g, h])
            == "label clash on shared vertex: 0 vs 1")


def test_union_rejects_port_double_booking():
    a, b, c = _ns(((), 0)), _ns((((1, 1),), 0)), _ns((((2, 2),), 0))
    g = _g(2, [((a, 1), (b, 1))], {a: 0, b: 0})
    h = _g(2, [((a, 1), (c, 1))], {a: 0, c: 0})
    assert not consistent(g, h).ok
    assert (_witness(_glue_names, [g, h]) == _witness(oracle_glue_all, [g, h])
            == "port 1 double-booked on a shared vertex")


def test_union_rejects_an_edge_collapsing_onto_one_slot():
    a, b = _ns(((), 0)), _ns((((1, 1),), 0))
    g = _g(2, [((a, 1), (b, 1))], {a: 0, b: 0})
    h = _g(2, [], {a | b: 0})  # a and b are one vertex, so the edge joins port 1 to itself
    assert not consistent(g, h).ok
    assert (_witness(_glue_names, [g, h]) == _witness(oracle_glue_all, [g, h])
            == "edge collapses onto a single port slot (1)")


def test_union_accepts_shared_edge():
    a, b = _ns(((), 0)), _ns((((1, 1),), 0))
    g = _g(2, [((a, 1), (b, 1))], {a: 0, b: 0})
    h = _g(2, [((a, 1), (b, 1))], {a: 0, b: 0})
    assert _glue_names([g, h]) == g


def test_glue_all_transitive_conflict():
    # parts pairwise consistent in isolation still clash once chained together
    a = _ns(((), 0), (((1, 1),), 0))
    b = _ns((((1, 1),), 0), (((2, 2),), 0))
    c = _ns(((), 0))
    d = _ns((((2, 2),), 0))
    p1 = _g(2, [], {a: 0})
    p2 = _g(2, [], {b: 0})
    p3 = _g(2, [((c, 1), (d, 1))], {c: 0, d: 0})
    # a and b chain c and d into one vertex; its port 1 then loops onto itself
    assert (_witness(_glue_names, [p1, p2, p3]) == _witness(oracle_glue_all, [p1, p2, p3])
            == "edge collapses onto a single port slot (1)")


def test_glue_refuses_plain_names():
    # read as name sets, "ab" and "bc" would share the element "b"
    g = PortGraph(1, ["ab"], [], {"ab": 0})
    h = PortGraph(1, ["bc"], [], {"bc": 1})
    with pytest.raises(GraphError, match="'ab'"):
        consistent(g, h)


def test_glue_all_order_independent():
    elems = [_ns((((i, i),), 0), (((i + 1, i + 1),), 0)) for i in range(1, 4)]
    parts = [_g(4, [], {e: 0}) for e in elems]
    ref = _glue_names(parts)
    for seed in range(6):
        shuffled = parts[:]
        random.Random(seed).shuffle(shuffled)
        assert _glue_names(shuffled) == ref
    assert len(ref.vertices) == 1


def test_glue_numbers_classes_in_order_of_their_first_vertex():
    # vertex 1 holds 8 and 7, vertex 3 holds 7; edge 0:1-1:2 and a self-loop on 2
    nbr, lab, cls = glue_all(2, [5, 8, 9, 7], ["p", "q", "r", "q"], [0, 3, 4, 5],
                             joins=[(1, 7)])
    assert cls == [0, 1, 2, 1]
    assert lab == ("p", "q", "r")
    assert nbr == (3, -1, -1, 0, 5, 4)
    assert from_port_array(2, nbr, lab).lab == ("p", "q")  # r is not joined to them
    with pytest.raises(GraphError, match="nothing"):
        glue_all(2, [], [], [])
    with pytest.raises(InconsistentUnion, match="label clash on shared vertex: 'q' vs 's'"):
        glue_all(2, [5, 8, 7], ["p", "q", "s"], [], joins=[(1, 7)])


# --- the glue against its frozen predecessor ---------------------------------

def _mutant_part(g, parts, rng):
    """``g`` with one change, or None when that change cannot be built.

    The change flips a label, moves an edge onto a slot that another
    part uses, or merges two vertices into one carrying both name sets.
    """
    vs = sorted(g.vertices, key=name_key)
    labels, edges = dict(g.labels), [tuple(e) for e in g.edges]
    kind = rng.choice(("label", "edge", "merge"))
    if kind == "label":
        v = rng.choice(vs)
        labels[v] ^= 1
        return PortGraph(g.degree, vs, edges, labels)
    if kind == "edge":
        used = {(e, p) for h in parts for edge in h.edges for (v, p) in edge for e in v}
        free = [(v, p) for v in vs for p in range(1, g.degree + 1)
                if (v, p) not in g.port_map() and any((e, p) in used for e in v)]
        if not edges or not free:
            return None
        kept, _ = edges.pop(rng.randrange(len(edges)))
        edges.append((kept, rng.choice(free)))
        return PortGraph(g.degree, vs, edges, labels)
    pairs = [(u, v) for u in vs for v in vs if name_key(u) < name_key(v)]
    rng.shuffle(pairs)
    for u, v in pairs:
        name = {w: u | v if w in (u, v) else w for w in vs}
        try:
            return PortGraph(g.degree, name.values(),
                             [((name[a], i), (name[b], j)) for (a, i), (b, j) in edges],
                             {name[w]: labels[w] for w in vs})
        except GraphError:  # the two vertices use one port, or an edge joins them on it
            continue
    return None


def _glued(glue, parts):
    """The glued graph, or the witness of the clash."""
    try:
        return glue(parts)
    except InconsistentUnion as clash:
        return str(clash)


def _mutant_corpus():
    """Rule images, whole and with one part changed or dropped.

    Yields each list of parts with the index pairs (k, m) of parts whose
    centres lie within reach of each other, so that their images may
    overlap.  A dropped part yields no pair.
    """
    cases = [
        (identity_rule(2, (0, 1)), dict(degree=2, alphabet=(0, 1))),
        (identity_rule(3, (0, 1)), dict(degree=3, alphabet=(0, 1))),
        (xor_label_rule(2), dict(degree=2, alphabet=(0, 1))),
        (inflating_grid_rule(), dict(degree=4, alphabet=(0,))),
    ]
    rng = random.Random(5)
    for rule, kw in cases:
        reach = 2 * rule.params.radius + 2
        for seed in range(4):
            x = random_graph(seed, size=7, **kw)
            centres = sorted(x.vertices, key=name_key)
            parts = [_normalized_image(rule, x, u) for u in centres]
            dist = [bfs_distances(x, u) for u in centres]
            near = [[m for m, w in enumerate(centres) if 0 < du[w] <= reach] for du in dist]
            inputs = [(parts, [(k, m) for k in range(len(parts)) for m in near[k]])]
            for _ in range(8):
                k = rng.randrange(len(parts))
                if rng.random() < 0.2:
                    inputs.append((parts[:k] + parts[k + 1:], []))
                    continue
                part = _mutant_part(parts[k], parts, rng)
                if part is not None:
                    changed = parts[:k] + [part] + parts[k + 1:]
                    inputs.append((changed, [(k, m) for m in near[k]]))
            yield from inputs


def test_glue_agrees_with_the_frozen_oracle():
    """Rule images, whole and with one part changed or dropped, glue alike,
    or clash with the same witness."""
    glued, verdicts = [], set()
    for ps, pairs in _mutant_corpus():
        got = _glued(_glue_names, ps)
        assert got == _glued(oracle_glue_all, ps)
        glued.append(isinstance(got, str))
        for k, m in pairs:
            new, old = consistent(ps[k], ps[m]), oracle_consistent(ps[k], ps[m])
            assert (new.ok, new.nonempty) == (old.ok, old.nonempty)
            verdicts.add((new.ok, new.nonempty))
    # the inputs reach every outcome of both functions
    assert 0 < sum(glued) < len(glued)
    assert verdicts == {(True, True), (True, False), (False, True)}


_DOUBLE_BOOKED = re.compile(r"port (\d+) double-booked on a shared vertex")


def test_consistent_agrees_with_the_frozen_class_glue():
    """``consistent`` glues numbered elements as its name-set union-find
    did: the same verdicts, and the same witnesses but for the port a
    double-booking names when both ends of one edge clash."""
    verdicts, renamed, total = set(), 0, 0
    for ps, pairs in _mutant_corpus():
        for k, m in pairs:
            g, h = ps[k], ps[m]
            new, old = consistent(g, h), oracle_classes_consistent(g, h)
            assert (new.ok, new.nonempty) == (old.ok, old.nonempty)
            verdicts.add((new.ok, new.nonempty))
            total += 1
            if new.witness != old.witness:
                ports = [int(_DOUBLE_BOOKED.fullmatch(w).group(1))
                         for w in (new.witness, old.witness)]
                # the two ports are the two ends of one edge
                assert any(sorted(ports) == sorted((i, j)) for x in (g, h)
                           for (_, i), (_, j) in x.port_map().items())
                renamed += 1
    assert verdicts == {(True, True), (True, False), (False, True)}
    assert renamed * 100 < total


def test_consistent_hand_verdicts_the_corpus_misses():
    # a label clash inside g, on elements h does not hold
    a, ab, c = _ns(((), 0)), _ns(((), 0), (((1, 1),), 0)), _ns((((2, 2),), 0))
    g = _g(2, [], {a: 0, ab: 1})
    h = _g(2, [], {c: 0})
    # two graphs without vertices glue to nothing, and trivially agree
    e = PortGraph(2, [], [], {})
    for (x, y), want in [((g, h), (False, False)), ((e, e), (True, False))]:
        for check in (consistent, oracle_consistent, oracle_classes_consistent):
            verdict = check(x, y)
            assert (verdict.ok, verdict.nonempty) == want
    assert consistent(g, h).witness == "label clash on shared vertex: 0 vs 1"
    # unequal port counts are refused before any name is read
    assert consistent(PortGraph(1, ["ab"], [], {"ab": 0}), e) == Consistency(
        False, False, "port counts differ")


# --- path language sanity ----------------------------------------------------

def test_path_conditions_hold_on_corpus():
    for x in [sample_graph(), grid_graph(3, 2), cycle_graph(5),
              random_graph(11, degree=3, size=10)]:
        assert check_path_conditions(x, 4) == []
