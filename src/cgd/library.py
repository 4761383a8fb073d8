"""Built-in rules and the registry that lets descriptions name them.

Every rule answers in disk ids, and every image is built by
``_block_image`` from the disk's port array: the center becomes a block,
and each center edge gets stubs claiming the neighbour, which make
adjacent images overlap so the glue reassembles the whole graph.  Each
rule's ``fn`` is the name-set view of these templates.  Every builder
takes a port count and an alphabet, as ``RULE_REGISTRY`` passes them,
and raises RuleError for a size its rule cannot take.
"""
from __future__ import annotations

from itertools import chain

from .corpus import E, N, S, W
from .rules import LocalRule, RuleError, RuleParams


def _block_image(d, nbr, side, label_of, inner=()) -> tuple:
    """The template of the image of a disk with port array ``nbr`` over d ports:
    a block of parts q claiming (0, q), wired by ``inner`` as ((q, a), (r, b)),
    and for each center edge {0: a, p: b} edges joining the parts ``side[a]``
    in order to stubs claiming (p, q) for q in ``side[b]``.  The parts of
    disk vertex v are labelled ``label_of(v)``.
    """
    core = label_of(0)
    parts = {(0, q): core for qs in side.values() for q in qs}  # pair -> label
    joins = [((0, q), a, (0, r), b) for (q, a), (r, b) in inner]
    for a in range(1, d + 1):
        s = nbr[a - 1]
        if s < 0:
            continue
        p, b = divmod(s, d)
        b += 1
        if p == 0 and b < a:
            continue  # a center self-loop, met first from its other end
        label = label_of(p) if p else core
        for qa, qb in zip(side[a], side[b]):
            parts[p, qb] = label
            joins.append(((0, qa), a, (p, qb), b))
    heads = sorted(parts)  # one pair a part, so the pairs order the parts
    k = {pair: i * d - 1 for i, pair in enumerate(heads)}  # port a of a part: slot k + a
    edges = sorted(sorted((k[u] + a, k[v] + b)) for u, a, v, b in joins)
    return tuple(heads), (), tuple(map(parts.__getitem__, heads)), tuple(chain(*edges))


def _sized(f: LocalRule, port_count, labels) -> LocalRule:
    """f, unless it cannot take ``port_count`` ports or one of ``labels``."""
    p, key = f.params, f.registry_key
    if port_count != p.port_count:
        raise RuleError(f"rule {key!r} works on {p.port_count}-port graphs, not {port_count}")
    for s in labels:
        if s not in p.labels:
            raise RuleError(f"label {s!r} is outside the alphabet {p.labels!r} of rule {key!r}")
    return f


def identity_rule(port_count=2, labels=(0, 1)) -> LocalRule:
    """F(x) = x, as a radius-1 rule: copy the center, its edges, its neighbours."""
    params = RuleParams(port_count, tuple(labels), radius=1, bound=port_count + 1)
    side = dict.fromkeys(range(1, port_count + 1), (0,))
    return LocalRule(params, ids=lambda nbr, lab: _block_image(port_count, nbr, side,
                                                               lab.__getitem__),
                     registry_key="identity")


def xor_label_rule(port_count=2, labels=(0, 1)) -> LocalRule:
    """Every vertex takes the parity of its closed neighbourhood's labels.

    Radius 2, because a stub must carry the neighbour's next label,
    which depends on the neighbour's own neighbourhood.
    """
    params = RuleParams(port_count, (0, 1), radius=2, bound=port_count + 1)
    side = dict.fromkeys(range(1, port_count + 1), (0,))
    d = port_count

    def ids(nbr, lab):
        def parity(c):  # of c's closed neighbourhood
            near = {s // d for s in nbr[c * d:c * d + d] if s >= 0}
            near.add(c)
            return sum(map(lab.__getitem__, near)) % 2

        return _block_image(d, nbr, side, parity)

    return _sized(LocalRule(params, ids=ids, registry_key="xor"), port_count, labels)


# quadrant suffixes: the nw quadrant continues the old vertex, the rest bud off it
NW, NE, SW, SE = 0, 1, 2, 3
_SIDE = {N: (NW, NE), S: (SW, SE), E: (NE, SE), W: (NW, SW)}
_INNER = (((NW, E), (NE, W)), ((SW, E), (SE, W)), ((NW, S), (SW, N)), ((NE, S), (SE, N)))


def inflating_grid_rule(port_count=4, labels=(0,)) -> LocalRule:
    """Split every vertex of a 4-port world into a wired 2 x 2 block.

    An old edge {u: a, p: b} becomes two parallel edges joining u's
    side-a quadrants to p's side-b quadrants in matching order, so the
    blocks of adjacent vertices stitch along whole sides.  On a w x h
    grid this doubles both dimensions every step.
    """
    params = RuleParams(4, (0,), radius=1, bound=12, suffix_count=3)

    def ids(nbr, lab):
        return _block_image(4, nbr, _SIDE, lambda v: 0, _INNER)

    f = LocalRule(params, ids=ids, registry_key="inflating-grid")
    return _sized(f, port_count, labels)


# Every library rule by name, built for a port count and an alphabet, each
# with a default the CLI leaves in place when not given.  The name is all a
# description needs to carry: the CLI and ``decode_rule`` build from here.
RULE_REGISTRY = {
    "identity": identity_rule,
    "xor": xor_label_rule,
    "inflating-grid": inflating_grid_rule,
}
