"""Deterministic fixtures and seeded random graph corpora.

Everything here returns canonical graphs (or plain port graphs plus a
pointer) and is pure given its seed, so tests can freeze expectations.
"""
from __future__ import annotations

import random

from .graph import EPSILON, CayleyGraph, GraphError, PortGraph, canonicalize, disk


def _fill(vertices, label):
    if isinstance(label, int):
        return {v: label for v in vertices}
    vals = list(label)
    if len(vals) != len(vertices):
        raise GraphError(f"{len(vals)} labels for {len(vertices)} vertices")
    return dict(zip(vertices, vals))


def path_graph(n: int, label=0) -> CayleyGraph:
    """Path on n vertices, port 1 forward and 2 back, pointed at one end."""
    vertices = list(range(n))
    edges = [((k, 1), (k + 1, 2)) for k in range(n - 1)]
    return canonicalize(PortGraph(2, vertices, edges, _fill(vertices, label)), 0)


def cycle_graph(n: int, label=0) -> CayleyGraph:
    """Cycle on n vertices; n = 1 is a single vertex with a self-loop."""
    vertices = list(range(n))
    edges = [((k, 1), ((k + 1) % n, 2)) for k in range(n)]
    return canonicalize(PortGraph(2, vertices, edges, _fill(vertices, label)), 0)


# grid ports, also the inflating-grid rule's
N, S, E, W = 1, 2, 3, 4


def grid_graph(w: int, h: int, label=0) -> CayleyGraph:
    """w x h square grid, ports 1..4 = north south east west, pointed at (0, 0)."""
    vertices = [(i, j) for i in range(w) for j in range(h)]
    edges = []
    for i in range(w):
        for j in range(h):
            if j + 1 < h:
                edges.append((((i, j), N), ((i, j + 1), S)))
            if i + 1 < w:
                edges.append((((i, j), E), ((i + 1, j), W)))
    return canonicalize(PortGraph(4, vertices, edges, _fill(vertices, label)), (0, 0))


def sample_graph() -> CayleyGraph:
    """Four vertices, five edges, degree 3, two labels.

    Small enough to name by hand, crooked enough to exercise self-free
    ports, a cycle and an off-cycle vertex.  The codec docs and golden
    tests use its encoding.
    """
    labels = {"a": 1, "b": 0, "c": 0, "e": 1}
    edges = [
        (("a", 1), ("b", 1)),
        (("b", 2), ("c", 3)),
        (("c", 2), ("a", 3)),
        (("c", 1), ("e", 1)),
        (("e", 2), ("b", 3)),
    ]
    return canonicalize(PortGraph(3, labels.keys(), edges, labels), "a")


def random_port_graph(rng: random.Random, *, degree=3, size=8, alphabet=(0, 1),
                      extra=0.35):
    """Random connected port graph and its pointer.

    Grows a random tree, then closes a few free port pairs into extra
    edges (possibly self-loops).  May come out smaller than ``size``
    when free ports run out.
    """
    vertices = ["v0"]
    labels = {"v0": rng.choice(alphabet)}
    free = [("v0", p) for p in range(1, degree + 1)]
    edges = []
    for i in range(1, size):
        if not free:
            break
        v, p = free.pop(rng.randrange(len(free)))
        name = f"v{i}"
        q = rng.randrange(1, degree + 1)
        vertices.append(name)
        labels[name] = rng.choice(alphabet)
        edges.append(((v, p), (name, q)))
        free.extend((name, r) for r in range(1, degree + 1) if r != q)
    for _ in range(int(extra * len(vertices))):
        if len(free) < 2:
            break
        a = free.pop(rng.randrange(len(free)))
        b = free.pop(rng.randrange(len(free)))
        edges.append((a, b))
    return PortGraph(degree, vertices, edges, labels), "v0"


def random_graph(seed, **kwargs) -> CayleyGraph:
    """Canonical form of ``random_port_graph`` for an int seed or an rng."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    g, root = random_port_graph(rng, **kwargs)
    return canonicalize(g, root)


def grow_beyond(core: CayleyGraph, k: int, rng: random.Random, extra: int,
                alphabet=(0, 1)) -> CayleyGraph:
    """Attach fresh vertices only at distance k, leaving the radius-k disk alone.

    New vertices hang off free ports of distance-k vertices (or off each
    other), so every one of them sits at distance at least k + 1 and no
    edge inside the ball changes.
    """
    d = core.degree
    open_slots = [(v, p) for i, v in enumerate(core.words) if len(v) == k
                  for p in range(1, d + 1) if core.nbr[i * d + p - 1] < 0]
    vertices = list(core.vertices)
    edges = [tuple(e) for e in core.edges]
    labels = dict(core.labels)
    new_slots = []
    for i in range(extra):
        pool = open_slots + new_slots
        if not pool:
            break
        slot = pool[rng.randrange(len(pool))]
        (open_slots if slot in open_slots else new_slots).remove(slot)
        name = f"g{i}"
        q = rng.randrange(1, d + 1)
        vertices.append(name)
        labels[name] = rng.choice(alphabet)
        edges.append((slot, (name, q)))
        new_slots.extend((name, r) for r in range(1, d + 1) if r != q)
    rng.shuffle(new_slots)
    while len(new_slots) >= 2 and rng.random() < 0.4:
        edges.append((new_slots.pop(), new_slots.pop()))
    return canonicalize(PortGraph(d, vertices, edges, labels), EPSILON)


def divergent_pair(seed, *, k: int, degree=3, size=12, alphabet=(0, 1)):
    """Two graphs that agree on the radius-k disk and usually differ beyond it."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    core = disk(random_graph(rng, degree=degree, size=size, alphabet=alphabet), k).graph
    x = grow_beyond(core, k, rng, extra=rng.randint(1, 6), alphabet=alphabet)
    y = grow_beyond(core, k, rng, extra=rng.randint(1, 6), alphabet=alphabet)
    return x, y


def flip_label_beyond(x: CayleyGraph, k: int, rng: random.Random, alphabet):
    """Relabel one vertex strictly beyond radius k; returns (graph, its distance).

    Names never depend on labels, so the result stays canonical as is.
    Returns None when every vertex lies within radius k or the alphabet
    offers no alternative.
    """
    deep = [i for i, v in enumerate(x.words) if len(v) > k]  # ids run in name_key order
    if not deep:
        return None
    i = deep[rng.randrange(len(deep))]
    others = [s for s in alphabet if s != x.lab[i]]
    if not others:
        return None
    labels = list(x.lab)
    labels[i] = rng.choice(others)
    return x.relabel(labels), len(x.words[i])
