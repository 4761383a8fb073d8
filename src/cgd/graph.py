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

One breadth-first search, ``_least_words``, names vertices shortest
first for both ``canonicalize`` and ``disk_around``.  So in a canonical
graph ``len(name)`` is the vertex's distance from the pointer, and
callers read distances off name lengths instead of searching.

``PortGraph`` treats vertex names as opaque hashables.  Three kinds
occur:

* a word: tuple of (out_port, in_port) pairs, as produced by
  ``canonicalize`` -- the empty tuple is the pointer;
* a name set: frozenset of (word, suffix) elements, used by rewriting
  rule images, where suffix 0 stands for "the vertex itself" and
  suffixes 1..s address fresh successors;
* anything else hashable (typically a string) for scratch graphs.

Only two places look inside name sets.  ``rules.check_image`` keeps the
name sets of one image disjoint, and the glue (``consistent`` and
``glue_all``) merges vertices whose name sets share an element.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction


Word = tuple
EPSILON: Word = ()
EPS_ELEM = ((), 0)  # empty word with the "itself" suffix


class GraphError(Exception):
    pass


class PortConflict(GraphError):
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


class PortGraph:
    """Immutable bounded-degree port graph with labelled vertices."""

    __slots__ = ("degree", "vertices", "edges", "_labels", "_hash", "_ports")

    def __init__(self, degree, vertices, edges, labels):
        if degree < 1:
            raise GraphError("degree must be at least 1")
        self.degree = degree = int(degree)
        self.vertices = vertices = frozenset(vertices)
        self.edges = frozenset(map(frozenset, edges))
        self._labels = dict(labels)
        self._hash = None
        if self._labels.keys() != vertices:
            missing = vertices - self._labels.keys()
            extra = self._labels.keys() - vertices
            raise GraphError(f"labels must cover vertices exactly "
                             f"(missing {len(missing)}, extra {len(extra)})")
        pm = {}
        for e in self.edges:
            if len(e) != 2:
                raise GraphError(f"edge must join two distinct port slots: {sorted(e, key=repr)}")
            for (v, p) in e:
                if v not in vertices:
                    raise GraphError(f"edge endpoint {v!r} is not a vertex")
                if not (1 <= p <= degree):
                    raise GraphError(f"port {p} out of range 1..{degree}")
                if (v, p) in pm:
                    raise PortConflict(f"port {p} of {v!r} used by two edges")
            a, b = e
            pm[a] = b
            pm[b] = a
        self._ports = pm

    def label(self, v):
        return self._labels[v]

    @property
    def labels(self):
        return self._labels

    def port_map(self):
        """dict (vertex, port) -> (other vertex, other port), both directions."""
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


def _least_words(g: PortGraph, center, r=None) -> dict:
    """Least word from ``center`` of each vertex within ``r`` (all if None).

    Ports are scanned in ascending order, so a vertex first reached from
    the vertex named w through pair (a, b) gets the least word
    w + ((a, b),), and ``len(name)`` is its distance from ``center``.
    """
    pm = g.port_map()
    ports = range(1, g.degree + 1)
    names = {center: EPSILON}
    queue = deque([center])
    while queue:
        v = queue.popleft()
        w = names[v]
        if len(w) == r:
            continue
        for a in ports:
            hit = pm.get((v, a))
            if hit is not None and hit[0] not in names:
                names[hit[0]] = w + ((a, hit[1]),)
                queue.append(hit[0])
    return names


def canonicalize(g: PortGraph, pointer) -> CayleyGraph:
    """Rename every vertex to its least word from ``pointer``.

    Raises DisconnectedInput when some vertex is unreachable.
    """
    if isinstance(g, CayleyGraph) and pointer == EPSILON:
        return g
    if pointer not in g.vertices:
        raise GraphError(f"pointer {pointer!r} is not a vertex")
    names = _least_words(g, pointer)
    if len(names) != len(g.vertices):
        raise DisconnectedInput(f"{len(g.vertices) - len(names)} vertices unreachable from pointer")
    edges = [frozenset(((names[u], i), (names[v], j))) for (u, i), (v, j) in map(tuple, g.edges)]
    labels = {w: g.label(v) for v, w in names.items()}
    return CayleyGraph(g.degree, names.values(), edges, labels)


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
    return canonicalize(x, walk(x, word))


def eccentricity(x: CayleyGraph) -> int:
    """Distance from the pointer to the farthest vertex: the longest name."""
    return max(map(len, x.vertices), default=0)


def disk_around(x: PortGraph, center, r: int) -> Disk:
    """The induced subgraph on the radius-r ball around ``center``, canonicalized there.

    Edges leaving the ball are dropped; edges between two ball vertices
    (including self-loops) are kept.  Canonical names of surviving
    vertices agree with ``shift(x, path-to-center)`` because every
    shortest path to a ball vertex stays inside the ball, so the ball's
    least words are already its canonical names.  Edges are found
    through the ports of the ball's own vertices, so extracting a disk
    costs in proportion to the ball, not to |V| or |E| of ``x``.
    """
    names = _least_words(x, center, r)
    pm = x.port_map()
    edges = set()
    for v, w in names.items():
        for a in range(1, x.degree + 1):
            hit = pm.get((v, a))
            if hit is not None and hit[0] in names:
                edges.add(frozenset(((w, a), (names[hit[0]], hit[1]))))
    labels = {w: x.label(v) for v, w in names.items()}
    return Disk(CayleyGraph(x.degree, names.values(), edges, labels), r)


def disk(x: CayleyGraph, r: int) -> Disk:
    """The radius-r disk around the pointer."""
    return disk_around(x, EPSILON, r)


class DyadicDistance(Fraction):
    """Distance 0 or 1/2^radius between two pointed graphs, as an exact fraction."""

    __slots__ = ("radius",)
    from_float = Fraction.from_float  # comparing with a float builds a plain Fraction
    __copy__ = __deepcopy__ = None    # copies go through __reduce__

    def __new__(cls, radius):
        self = super().__new__(cls, 0 if radius is None else Fraction(1, 2 ** radius))
        self.radius = radius  # None means the graphs are equal
        return self

    def __reduce__(self):
        return DyadicDistance, (self.radius,)

    @property
    def value(self) -> Fraction:
        return Fraction(self)

    @property
    def is_zero(self) -> bool:
        return self.radius is None

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


def _classes(graphs) -> dict:
    """Union-find over name elements: each vertex's name set is one class.

    Every distinct name set opens a node.  Its elements not seen before
    point at that node, and the classes of the elements already seen are
    joined to it.  Returns each vertex's class as the id of its root, so
    two vertices share a class exactly when a chain of name sets sharing
    elements links them.  A vertex whose name is not a name set raises
    GraphError, since reading it as one would glue on its characters or
    items.
    """
    owner = {}  # element -> node of the first name set holding it
    parent = []

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    node = {}
    for g in graphs:
        for v in g.vertices:
            if v in node:
                continue  # an equal name set adds no element
            if not isinstance(v, frozenset):
                raise GraphError(f"vertex {v!r} is not a name set, so it cannot be glued")
            root = node[v] = len(parent)
            parent.append(root)
            for e in v:
                i = find(owner.setdefault(e, root))
                if i != root:
                    parent[i] = root
    return {v: find(i) for v, i in node.items()}


def _clash(graphs, cls):
    """Why the vertices of one class cannot be a single vertex, or None."""
    label_of = {}
    for g in graphs:
        for v, lab in g.labels.items():
            c = cls[v]
            if label_of.setdefault(c, lab) != lab:
                return f"label clash on shared vertex: {label_of[c]!r} vs {lab!r}"
    port_use = {}
    for g in graphs:
        for (u, i), (v, j) in g.edges:
            cu, cv = cls[u], cls[v]
            if cu == cv and i == j:
                return f"edge collapses onto a single port slot ({i})"
            for slot, tgt in (((cu, i), (cv, j)), ((cv, j), (cu, i))):
                if port_use.setdefault(slot, tgt) != tgt:
                    return f"port {slot[1]} double-booked on a shared vertex"
    return None


def consistent(g: PortGraph, h: PortGraph) -> Consistency:
    """Do g and h agree wherever they share vertices?

    Vertices are name sets, and two are shared when their sets intersect
    (such vertices denote one vertex once glued).  Agreement requires
    equal labels and no port carrying two different edges.  ``nonempty``
    reports whether the element sets of g and h intersect; consistency
    with an empty overlap is trivial.
    """
    if g.degree != h.degree:
        return Consistency(False, False, "port counts differ")
    cls = _classes([g, h])
    # a chain of name sets from a vertex of g to one of h passes an element of both
    nonempty = not {cls[v] for v in g.vertices}.isdisjoint([cls[v] for v in h.vertices])
    witness = _clash([g, h], cls)
    return Consistency(witness is None, nonempty, witness)


def glue_all(parts) -> PortGraph:
    """Merge consistent graphs, gluing vertices whose name sets intersect.

    Order does not matter.  A merged vertex carries the union of its name
    sets; this is what makes per-vertex rule images reassemble into one
    graph.  Distinct classes hold disjoint elements, so the result's name
    sets are disjoint again.
    """
    parts = list(parts)
    if not parts:
        raise GraphError("nothing to glue")
    degree = parts[0].degree
    if any(p.degree != degree for p in parts):
        raise InconsistentUnion("port counts differ")
    cls = _classes(parts)
    witness = _clash(parts, cls)
    if witness is not None:
        raise InconsistentUnion(witness)
    members = {}
    for v, c in cls.items():
        members.setdefault(c, []).append(v)
    name = {c: frozenset().union(*vs) for c, vs in members.items()}
    labels = {name[cls[v]]: lab for g in parts for v, lab in g.labels.items()}
    edges = {frozenset(((name[cls[u]], i), (name[cls[v]], j)))
             for g in parts for (u, i), (v, j) in g.edges}
    return PortGraph(degree, name.values(), edges, labels)
