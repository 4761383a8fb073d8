"""Port graphs with canonical path names.

A port graph has bounded degree: every vertex exposes numbered ports
1..degree and every port carries at most one edge.  An edge is an
unordered pair of port slots {u:i, v:j}; self-loops {u:i, u:j} with
i != j are allowed.  Every vertex carries a label.

A pointed connected port graph has a canonical form in which each
vertex is named by the least word of port pairs reaching it from the
pointer (shorter words first, then lexicographic order on the pairs).
The pointer itself is named by the empty word.  Two pointed graphs are
isomorphic exactly when their canonical forms are equal, which makes
canonical graphs usable as dictionary keys.

Vertex names come in three kinds:

* a word: tuple of (out_port, in_port) pairs, as produced by
  ``canonicalize`` -- the empty tuple is the pointer;
* a name set: frozenset of (word, suffix) elements, used by rewriting
  rule images, where suffix 0 stands for "the vertex itself" and
  suffixes 1..s address fresh successors; distinct vertices of one
  graph must use disjoint name sets;
* anything else hashable (typically a string) for scratch graphs.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering


Word = tuple
EPSILON: Word = ()
EPS_ELEM = ((), 0)  # empty word with the "itself" suffix


class GraphError(Exception):
    pass


class PortConflict(GraphError):
    pass


class NameSetOverlap(GraphError):
    pass


class DisconnectedInput(GraphError):
    pass


class NoSuchPath(GraphError):
    pass


class InconsistentUnion(GraphError):
    pass


def name_key(name):
    """Total order over all three name kinds, for deterministic output."""
    if isinstance(name, frozenset):
        return (1, tuple(sorted((len(w), w, z) for (w, z) in name)))
    if isinstance(name, tuple):
        return (0, len(name), name)
    return (2, repr(name))


def inverse_word(word: Word) -> Word:
    """Reverse a word of port pairs; walking it undoes the original walk."""
    return tuple((b, a) for (a, b) in reversed(word))


class PortGraph:
    """Immutable bounded-degree port graph with labelled vertices."""

    __slots__ = ("degree", "vertices", "edges", "_labels", "_hash", "_ports")

    def __init__(self, degree, vertices, edges, labels):
        if degree < 1:
            raise GraphError("degree must be at least 1")
        self.degree = int(degree)
        self.vertices = frozenset(vertices)
        self.edges = frozenset(frozenset(e) for e in edges)
        self._labels = dict(labels)
        self._hash = None
        self._ports = None
        self._validate()

    def _validate(self):
        if set(self._labels) != self.vertices:
            missing = self.vertices - set(self._labels)
            extra = set(self._labels) - self.vertices
            raise GraphError(f"labels must cover vertices exactly "
                             f"(missing {len(missing)}, extra {len(extra)})")
        seen_slots = set()
        for e in self.edges:
            if len(e) != 2:
                raise GraphError(f"edge must join two distinct port slots: {sorted(e, key=repr)}")
            for (v, p) in e:
                if v not in self.vertices:
                    raise GraphError(f"edge endpoint {v!r} is not a vertex")
                if not (1 <= p <= self.degree):
                    raise GraphError(f"port {p} out of range 1..{self.degree}")
                if (v, p) in seen_slots:
                    raise PortConflict(f"port {p} of {v!r} used by two edges")
                seen_slots.add((v, p))
        # name sets of distinct vertices must not share elements
        owner = {}
        for v in self.vertices:
            if isinstance(v, frozenset):
                for elem in v:
                    if elem in owner:
                        raise NameSetOverlap(f"element {elem!r} appears in two vertex name sets")
                    owner[elem] = v

    def label(self, v):
        return self._labels[v]

    @property
    def labels(self):
        return self._labels

    def port_map(self):
        """dict (vertex, port) -> (other vertex, other port), both directions."""
        if self._ports is None:
            pm = {}
            for e in self.edges:
                (u, i), (v, j) = e
                pm[(u, i)] = (v, j)
                pm[(v, j)] = (u, i)
            self._ports = pm
        return self._ports

    def __eq__(self, other):
        if not isinstance(other, PortGraph):
            return NotImplemented
        return (self.degree == other.degree and self.vertices == other.vertices
                and self.edges == other.edges and self._labels == other._labels)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.degree, self.vertices, self.edges,
                               frozenset(self._labels.items())))
        return self._hash

    def __repr__(self):
        return f"<{type(self).__name__} degree={self.degree} |V|={len(self.vertices)} |E|={len(self.edges)}>"


class CayleyGraph(PortGraph):
    """A canonical pointed connected port graph.

    Vertices are words of port pairs; the pointer is the empty word.
    Instances are produced by ``canonicalize`` and are equal exactly
    when they are isomorphic as pointed labelled port graphs.
    """

    __slots__ = ()

    @property
    def pointer(self) -> Word:
        return EPSILON


@dataclass(frozen=True)
class Disk:
    """A canonical graph all of whose vertices lie within ``radius`` of the pointer."""
    graph: CayleyGraph
    radius: int

    def __post_init__(self):
        if self.radius < 0:
            raise GraphError("radius must be nonnegative")
        if eccentricity(self.graph) > self.radius:
            raise GraphError("graph reaches beyond the stated radius")


def canonicalize(g: PortGraph, pointer) -> CayleyGraph:
    """Rename every vertex to its least word from ``pointer``.

    Breadth-first search assigns names in increasing word order: a
    vertex first reached from parent word w through pair (a, b) is
    named w + ((a, b),), scanning ports in ascending order.  Raises
    DisconnectedInput when some vertex is unreachable.
    """
    if isinstance(g, CayleyGraph) and pointer == EPSILON:
        return g
    if pointer not in g.vertices:
        raise GraphError(f"pointer {pointer!r} is not a vertex")
    pm = g.port_map()
    names = {pointer: EPSILON}
    queue = deque([pointer])
    while queue:
        v = queue.popleft()
        w = names[v]
        for a in range(1, g.degree + 1):
            hit = pm.get((v, a))
            if hit is None:
                continue
            y, b = hit
            if y not in names:
                names[y] = w + ((a, b),)
                queue.append(y)
    if len(names) != len(g.vertices):
        raise DisconnectedInput(f"{len(g.vertices) - len(names)} vertices unreachable from pointer")
    edges = [frozenset(((names[u], i), (names[v], j))) for (u, i), (v, j) in map(tuple, g.edges)]
    labels = {names[v]: g.label(v) for v in g.vertices}
    out = CayleyGraph(g.degree, names.values(), edges, labels)
    return out


def walk(x: PortGraph, word: Word, start=EPSILON):
    """Follow a word of port pairs from ``start`` and return the end vertex."""
    pm = x.port_map()
    v = start
    if v not in x.vertices:
        raise NoSuchPath(f"start vertex {v!r} not in graph")
    for (a, b) in word:
        hit = pm.get((v, a))
        if hit is None:
            raise NoSuchPath(f"no edge on port {a} of {v!r}")
        y, b2 = hit
        if b2 != b:
            raise NoSuchPath(f"edge on port {a} of {v!r} enters port {b2}, not {b}")
        v = y
    return v


def shift(x: CayleyGraph, word: Word) -> CayleyGraph:
    """Re-point the graph at the end of ``word`` and re-canonicalize."""
    return canonicalize(PortGraph(x.degree, x.vertices, x.edges, x.labels),
                        walk(x, word))


def _ball(g: PortGraph, center, r: int):
    pm = g.port_map()
    dist = {center: 0}
    queue = deque([center])
    while queue:
        v = queue.popleft()
        if dist[v] == r:
            continue
        for a in range(1, g.degree + 1):
            hit = pm.get((v, a))
            if hit is not None and hit[0] not in dist:
                dist[hit[0]] = dist[v] + 1
                queue.append(hit[0])
    return dist


def eccentricity(x: CayleyGraph) -> int:
    dist = _ball(x, EPSILON, len(x.vertices))
    return max(dist.values(), default=0)


def disk_around(x: PortGraph, center, r: int) -> Disk:
    """The induced subgraph on the radius-r ball around ``center``, canonicalized there.

    Edges leaving the ball are dropped; edges between two ball vertices
    (including self-loops) are kept.  Canonical names of surviving
    vertices agree with ``shift(x, path-to-center)`` because every
    shortest path to a ball vertex stays inside the ball.  Edges are
    found through the ports of the ball's own vertices, so extracting a
    disk costs in proportion to the ball, not to |V| or |E| of ``x``.
    """
    inside = _ball(x, center, r)
    pm = x.port_map()
    edges = set()
    for v in inside:
        for a in range(1, x.degree + 1):
            hit = pm.get((v, a))
            if hit is not None and hit[0] in inside:
                edges.add(frozenset(((v, a), hit)))
    sub = PortGraph(x.degree, inside.keys(), edges, {v: x.label(v) for v in inside})
    return Disk(canonicalize(sub, center), r)


def disk(x: CayleyGraph, r: int) -> Disk:
    """The radius-r disk around the pointer."""
    return disk_around(x, EPSILON, r)


@total_ordering
class DyadicDistance:
    """Distance 0 or 1/2^radius between two pointed graphs."""

    __slots__ = ("radius",)

    def __init__(self, radius):
        self.radius = radius  # None means the graphs are equal

    @property
    def value(self) -> Fraction:
        return Fraction(0) if self.radius is None else Fraction(1, 2 ** self.radius)

    @property
    def is_zero(self) -> bool:
        return self.radius is None

    def _coerce(self, other):
        if isinstance(other, DyadicDistance):
            return other.value
        return Fraction(other)

    def __eq__(self, other):
        if isinstance(other, DyadicDistance):
            return self.radius == other.radius
        try:
            return self.value == self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __lt__(self, other):
        return self.value < self._coerce(other)

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return "DyadicDistance(0)" if self.is_zero else f"DyadicDistance(1/2**{self.radius})"


def distance(x: CayleyGraph, y: CayleyGraph) -> DyadicDistance:
    """1/2^r where r is the least radius at which the disks differ, 0 if equal.

    Graphs closer than epsilon agree on the disk of radius
    floor(-log2 epsilon), and conversely.
    """
    if x.degree != y.degree:
        raise GraphError("graphs must share the same port count")
    if x == y:
        return DyadicDistance(None)
    bound = max(eccentricity(x), eccentricity(y)) + 1
    for r in range(bound + 1):
        if disk(x, r) != disk(y, r):
            return DyadicDistance(r)
    raise AssertionError("unequal graphs with all disks equal")


@dataclass(frozen=True)
class Consistency:
    """Verdict of comparing two graphs on their shared vertices."""
    ok: bool
    nonempty: bool
    witness: str | None = None


class _Merge:
    """Union-find over vertex handles, merging vertices that share a name.

    Name-set vertices are identified when their sets intersect; other
    vertices are identified when their names are equal.  Used by
    ``consistent`` and ``glue_all``.
    """

    def __init__(self):
        self.parent = {}
        self.cross = False

    def _find(self, h):
        p = self.parent
        root = h
        while p[root] != root:
            root = p[root]
        while p[h] != root:
            p[h], h = root, p[h]
        return root

    def _union(self, a, b):
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self.parent[ra] = rb

    def add_graphs(self, graphs):
        key_owner = {}
        for gi, g in enumerate(graphs):
            for v in g.vertices:
                h = (gi, v)
                self.parent.setdefault(h, h)
                keys = v if isinstance(v, frozenset) else (("=", v),)
                for k in keys:
                    if k in key_owner:
                        other = key_owner[k]
                        if other[0] != gi and self._find(other) != self._find(h):
                            self.cross = True
                        self._union(other, h)
                    else:
                        key_owner[k] = h

    def check(self, graphs):
        """Label agreement and single use of every port across the merge."""
        label_of = {}
        for gi, g in enumerate(graphs):
            for v in g.vertices:
                root = self._find((gi, v))
                lab = g.label(v)
                if root in label_of and label_of[root] != lab:
                    return Consistency(False, self.cross,
                                       f"label clash on shared vertex: {label_of[root]!r} vs {lab!r}")
                label_of[root] = lab
        port_use = {}
        for gi, g in enumerate(graphs):
            for e in g.edges:
                (u, i), (v, j) = tuple(e)
                ru, rv = self._find((gi, u)), self._find((gi, v))
                if ru == rv and i == j:
                    return Consistency(False, self.cross,
                                       f"edge collapses onto a single port slot ({i})")
                for (a, pa, b, pb) in ((ru, i, rv, j), (rv, j, ru, i)):
                    tgt = (b, pb)
                    prev = port_use.get((a, pa))
                    if prev is not None and prev != tgt:
                        return Consistency(False, self.cross,
                                           f"port {pa} double-booked on a shared vertex")
                    port_use[(a, pa)] = tgt
        return Consistency(True, self.cross)

    def merged_graph(self, graphs, degree):
        members = {}
        for gi, g in enumerate(graphs):
            for v in g.vertices:
                members.setdefault(self._find((gi, v)), []).append((gi, v))
        names, labels = {}, {}
        for root, handles in members.items():
            vs = [v for (_, v) in handles]
            if all(isinstance(v, frozenset) for v in vs):
                name = frozenset().union(*vs)
            else:
                name = vs[0]
            names[root] = name
            gi, v = handles[0]
            labels[name] = graphs[gi].label(v)
        edges = set()
        for gi, g in enumerate(graphs):
            for e in g.edges:
                (u, i), (v, j) = tuple(e)
                edges.add(frozenset(((names[self._find((gi, u))], i),
                                     (names[self._find((gi, v))], j))))
        return PortGraph(degree, names.values(), edges, labels)


def consistent(g: PortGraph, h: PortGraph) -> Consistency:
    """Do g and h agree wherever they share vertices?

    Shared means equal names, or intersecting name sets (such vertices
    denote one vertex once glued).  Agreement requires equal labels and
    no port carrying two different edges.  ``nonempty`` reports whether
    any vertex is actually shared; consistency with an empty overlap is
    trivial.
    """
    if g.degree != h.degree:
        return Consistency(False, False, "port counts differ")
    m = _Merge()
    m.add_graphs([g, h])
    return m.check([g, h])


def glue_all(parts) -> PortGraph:
    """Merge consistent graphs, gluing shared vertices; order does not matter.

    Merged vertices carry the union of their name sets; this is what
    makes per-vertex rule images reassemble into one graph.
    """
    parts = list(parts)
    if not parts:
        raise GraphError("nothing to glue")
    degree = parts[0].degree
    if any(p.degree != degree for p in parts):
        raise InconsistentUnion("port counts differ")
    m = _Merge()
    m.add_graphs(parts)
    verdict = m.check(parts)
    if not verdict.ok:
        raise InconsistentUnion(verdict.witness)
    return m.merged_graph(parts, degree)


def check_path_conditions(x: CayleyGraph, max_len: int) -> list:
    """Brute-force check of the path-language axioms up to ``max_len``.

    Enumerates every walkable word from the pointer and verifies that
    (1) the language is prefix-closed, (2) words ending on the same
    vertex extend identically, (3) every traversed edge can be walked
    back, undoing the step, and (4) a port determines at most one
    continuation.  Returns a list of violation strings, empty on pass.
    """
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
