"""Shared oracles.

These reimplement the naming and distance semantics with different
algorithms than the library so the tests do not just compare the code
with itself.
"""
from collections import deque

import pytest


@pytest.fixture
def graphs_built(monkeypatch):
    """A list that grows by one per graph construction: a PortGraph built
    from names, or a CayleyGraph built from its port array."""
    from cgd.graph import CayleyGraph, PortGraph

    calls = []
    init, of = PortGraph.__init__, CayleyGraph._of.__func__

    def counted_init(self, *args):
        calls.append(1)
        init(self, *args)

    def counted_of(cls, *args):
        calls.append(1)
        return of(cls, *args)

    monkeypatch.setattr(PortGraph, "__init__", counted_init)
    monkeypatch.setattr(CayleyGraph, "_of", classmethod(counted_of))
    return calls


def bfs_distances(g, start):
    pm = g.port_map()
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for a in range(1, g.degree + 1):
            hit = pm.get((v, a))
            if hit is not None and hit[0] not in dist:
                dist[hit[0]] = dist[v] + 1
                queue.append(hit[0])
    return dist


def inverse_word(word):
    """Reverse a word of port pairs; walking it undoes the original walk."""
    return tuple((b, a) for (a, b) in reversed(word))


def check_path_conditions(x, max_len):
    """Brute-force check of the path-language axioms up to ``max_len``.

    Enumerates every walkable word from the pointer and verifies that
    (1) the language is prefix-closed, (2) words ending on the same
    vertex extend identically, (3) every traversed edge can be walked
    back, undoing the step, and (4) a port determines at most one
    continuation.  Returns a list of violation strings, empty on pass.
    """
    from cgd.graph import EPSILON, NoSuchPath, walk

    pm = x.port_map()
    d = x.degree
    violations = []
    frontier = {EPSILON: EPSILON}
    words = dict(frontier)
    for _ in range(max_len):
        nxt = {}
        for w, v in frontier.items():
            seen_ports = {}
            for a in range(1, d + 1):
                for b in range(1, d + 1):
                    try:
                        y = walk(x, ((a, b),), start=v)
                    except NoSuchPath:
                        continue
                    if a in seen_ports:
                        violations.append(f"port {a} at {v!r} admits two continuations")
                    seen_ports[a] = b
                    w2 = w + ((a, b),)
                    nxt[w2] = y
                    try:
                        back = walk(x, ((b, a),), start=y)
                    except NoSuchPath:
                        back = None
                    if back != v:
                        violations.append(f"word {w2} cannot be undone by ({b},{a})")
        words.update(nxt)
        frontier = nxt
    by_vertex = {}
    for w, v in words.items():
        by_vertex.setdefault(v, []).append(w)
    for v, ws in by_vertex.items():
        outs = {a: pm.get((v, a)) for a in range(1, d + 1)}
        for w in ws:
            if w and w[:-1] not in words:
                violations.append(f"language not prefix-closed at {w}")
            for a, hit in outs.items():
                if hit is None:
                    continue
                if len(w) < max_len and w + ((a, hit[1]),) not in words:
                    violations.append(f"extension ({a},{hit[1]}) missing after {w}")
    return violations


def assert_step_local(before, after, reach=2):
    """Every change between consecutive machine worlds hugs the machine.

    Removed vertices, relabelings, and both ends of every touched edge
    must sit within `reach` of the machine beforehand; vertices born in
    the step must sit within `reach` of it afterwards.
    """
    m = before.machine
    dist = bfs_distances(before.graph, m)
    ball = {v for v, k in dist.items() if k <= reach}
    old_v, new_v = set(before.graph.vertices), set(after.graph.vertices)
    created = new_v - old_v
    assert old_v - new_v <= ball
    for e in set(before.graph.edges) ^ set(after.graph.edges):
        for u, _ in e:
            assert u in ball or u in created
    for v in old_v & new_v:
        if before.graph.label(v) != after.graph.label(v):
            assert v in ball
    if m in new_v:
        dist_after = bfs_distances(after.graph, m)
        for v in created:
            assert dist_after.get(v, reach + 99) <= reach


def layered_min_names(g, pointer):
    """Least-word names computed layer by layer.

    A least word reaching v must extend a least word reaching some
    neighbour one layer up, so taking the minimum over those extensions
    per vertex is enough.  Independent of the library's one-pass namer.
    """
    pm = g.port_map()
    dist = bfs_distances(g, pointer)
    names = {pointer: ()}
    order = sorted(((d, repr(v), v) for v, d in dist.items() if d > 0))
    for _, _, v in order:
        cands = []
        for b in range(1, g.degree + 1):
            hit = pm.get((v, b))
            if hit is None:
                continue
            u, a = hit
            if dist.get(u) == dist[v] - 1:
                cands.append(names[u] + ((a, b),))
        names[v] = min(cands)
    return names


def exhaustive_min_names(g, pointer, max_len, cap=300000):
    """Try every walkable word in shortlex order.  Small graphs only."""
    pm = g.port_map()
    names = {pointer: ()}
    level = [((), pointer)]
    work = 0
    for _ in range(max_len):
        if len(names) == len(g.vertices):
            break
        nxt = []
        for w, v in level:
            for a in range(1, g.degree + 1):
                hit = pm.get((v, a))
                if hit is None:
                    continue
                nxt.append((w + ((a, hit[1]),), hit[0]))
                work += 1
                if work > cap:
                    raise RuntimeError("exhaustive oracle over budget")
        nxt.sort()
        for w, v in nxt:
            names.setdefault(v, w)
        level = nxt
    return names


def rename_by(g, names, cls):
    """Rebuild g with vertices renamed through ``names``."""
    edges = [((names[u], i), (names[v], j)) for (u, i), (v, j) in map(tuple, g.edges)]
    return cls(g.degree, [names[v] for v in g.vertices], edges,
               {names[v]: g.label(v) for v in g.vertices})


def _matchings(slots):
    """Every way to pair up some of the slots."""
    if not slots:
        yield []
        return
    first, rest = slots[0], slots[1:]
    yield from _matchings(rest)
    for i, other in enumerate(rest):
        for tail in _matchings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + tail


def _connected(n, edges):
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for (u, _), (v, _) in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)}) == 1


def brute_canonical_graphs(degree, alphabet, max_vertices, max_ecc=None):
    """Enumeration oracle by sheer force: every matching of every slot set,
    every labelling, deduped through the canonical form."""
    from itertools import product

    from cgd.graph import CayleyGraph, PortGraph, canonicalize, eccentricity

    out = set()
    for n in range(1, max_vertices + 1):
        slots = [(v, p) for v in range(n) for p in range(1, degree + 1)]
        for edges in _matchings(slots):
            if not _connected(n, edges):
                continue
            tagged = canonicalize(
                PortGraph(degree, range(n), edges, {v: v for v in range(n)}), 0)
            if max_ecc is not None and eccentricity(tagged) > max_ecc:
                continue
            names = {tagged.label(w): w for w in tagged.vertices}
            for assign in product(alphabet, repeat=n):
                out.add(CayleyGraph(degree, tagged.vertices, tagged.edges,
                                    {names[i]: assign[i] for i in range(n)}))
    return out
