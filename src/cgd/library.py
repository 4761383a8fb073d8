"""Built-in rules and the registry that lets descriptions name them.

All three rules share the image idiom: the center claims itself via
(eps, 0), every neighbour appears as a stub claiming itself via
(neighbour, 0), and exactly the center's incident edges are mirrored.
Stubs are what make adjacent images overlap, so the glue reassembles
the whole graph instead of a dust of pieces.
"""
from __future__ import annotations

from .graph import EPSILON, Disk, PortGraph
from .rules import LocalRule, RuleParams

N, S, E, W = 1, 2, 3, 4


def identity_rule(port_count=2, labels=(0, 1)) -> LocalRule:
    """F(x) = x, as a radius-1 rule: copy the center, its edges, its neighbours."""
    params = RuleParams(port_count, tuple(labels), radius=1, bound=port_count + 1)

    def fn(d: Disk) -> PortGraph:
        g = d.graph
        name = {v: frozenset({(v, 0)}) for v in g.vertices}
        keep = [tuple(e) for e in g.edges if any(v == EPSILON for v, _ in e)]
        edges = [((name[u], i), (name[v], j)) for (u, i), (v, j) in keep]
        return PortGraph(g.degree, name.values(), edges,
                         {name[v]: g.label(v) for v in g.vertices})

    return LocalRule(params, fn=fn, registry_key="identity")


def xor_label_rule(port_count=2) -> LocalRule:
    """Every vertex takes the parity of its closed neighbourhood's labels.

    Radius 2, because a stub must carry the neighbour's next label,
    which depends on the neighbour's own neighbourhood.
    """
    params = RuleParams(port_count, (0, 1), radius=2, bound=port_count + 1)

    def fn(d: Disk) -> PortGraph:
        g = d.graph
        pm = g.port_map()

        def around(c):
            hits = {pm[(c, a)][0] for a in range(1, g.degree + 1) if (c, a) in pm}
            return hits | {c}

        def parity(c):
            return sum(g.label(v) for v in around(c)) % 2

        near = around(EPSILON)
        name = {v: frozenset({(v, 0)}) for v in near}
        keep = [tuple(e) for e in g.edges if any(v == EPSILON for v, _ in e)]
        edges = [((name[u], i), (name[v], j)) for (u, i), (v, j) in keep]
        return PortGraph(g.degree, name.values(), edges,
                         {name[v]: parity(v) for v in near})

    return LocalRule(params, fn=fn, registry_key="xor")


# quadrant suffixes: the nw quadrant continues the old vertex, the rest bud off it
NW, NE, SW, SE = 0, 1, 2, 3
_SIDE = {N: (NW, NE), S: (SW, SE), E: (NE, SE), W: (NW, SW)}


def inflating_grid_rule() -> LocalRule:
    """Split every vertex of a 4-port world into a wired 2 x 2 block.

    An old edge {u: a, p: b} becomes two parallel edges joining u's
    side-a quadrants to p's side-b quadrants in matching order, so the
    blocks of adjacent vertices stitch along whole sides.  On a w x h
    grid this doubles both dimensions every step.
    """
    params = RuleParams(4, (0,), radius=1, bound=12, suffix_count=3)

    def fn(d: Disk) -> PortGraph:
        g = d.graph
        core = {q: frozenset({(EPSILON, q)}) for q in (NW, NE, SW, SE)}
        vertices = set(core.values())
        edges = [
            ((core[NW], E), (core[NE], W)),
            ((core[SW], E), (core[SE], W)),
            ((core[NW], S), (core[SW], N)),
            ((core[NE], S), (core[SE], N)),
        ]
        for e in g.edges:
            slots = sorted(e, key=lambda s: (s[0] != EPSILON, s[1]))
            if slots[0][0] != EPSILON:
                continue  # an edge between two neighbours; their own blocks wire it
            (_, a), (p, b) = slots
            for qa, qb in zip(_SIDE[a], _SIDE[b]):
                other = frozenset({(p, qb)})
                vertices.add(other)
                edges.append(((core[qa], a), (other, b)))
        return PortGraph(4, vertices, edges, {v: 0 for v in vertices})

    return LocalRule(params, fn=fn, registry_key="inflating-grid")


# Every library rule by name, built for a port count and an alphabet.  The
# name is all a description needs to carry: the CLI and ``decode_rule``
# both build rules from here.
RULE_REGISTRY = {
    "identity": identity_rule,
    "xor": lambda port_count, labels: xor_label_rule(port_count),
    "inflating-grid": lambda port_count, labels: inflating_grid_rule(),
}
