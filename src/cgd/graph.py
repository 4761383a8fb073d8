"""Port graphs, and canonical graphs stored as breadth-first port arrays.

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

What a canonical graph stores.  Ports are ordered, so a breadth-first
search from the pointer that scans ports in ascending order meets the
vertices in least-word order, and the first pair that reaches a vertex
extends its least word.  So a ``CayleyGraph`` keeps integers only:

* vertex ids 0..n-1 in least-word order, the pointer being 0;
* ``nbr``, a flat port array: ``nbr[v*d + a-1]`` is ``u*d + b-1`` when
  port a of v is joined to port b of u, and -1 when port a is free;
* ``lab``, the label of each id.

Equality and hashing read only these.  One search, ``ball``, fills
them: through ``from_port_array`` for ``canonicalize``, ``disk_around``,
the decoder of ``cgd.codec`` and the word constructor
``CayleyGraph(degree, vertices, edges, labels)``, and directly for the
rule step of ``cgd.rules``, which searches the disk around every vertex
id.  The enumerator of ``cgd.codec`` emits port arrays in search order
directly, and ``CayleyGraph.relabel`` reuses a port array under new
labels.

Which views are derived.  ``words`` (the least word of each id),
``vertices``, ``edges``, ``labels``, ``label()`` and ``port_map()`` give
the same graph named by words; each is built on first use and cached.
In them ``len(name)`` is the vertex's distance from the pointer.  The
rule step builds no word of its input: it keys images by the disk's
port array, places image elements at ints and glues them with
``glue_all``.  The library rules, decoded descriptions and the universal
rule read a disk as its port array too, so a step builds no word at all
with them.  Words are still built where names are the interface: a rule
function written over name sets, reading its ``Disk``; the name-set view
of an image (``LocalRule.image``, a rule's ``fn``); the validator's
renaming ``walk``; rendering; and any caller of those views.  The codec,
equality and hashing never build them.

What a ``PortGraph`` stores: its vertices, their labels and its port
map, the one record of its wiring.  ``edges`` is a view of the port
map, built on first use; ``CayleyGraph`` inherits it.

Equality does not cross classes.  A ``PortGraph`` equals only a
``PortGraph`` with the same vertices, labels and port map; a
``CayleyGraph`` equals only a ``CayleyGraph`` with the same port array
and labels.  So a ``PortGraph`` never equals the ``CayleyGraph`` with
the same words.

``PortGraph`` treats vertex names as opaque hashables.  Three kinds
occur:

* a word: tuple of (out_port, in_port) pairs, as in the views of a
  canonical graph -- the empty tuple is the pointer;
* a name set: frozenset of (word, suffix) elements, used by rewriting
  rule images, where suffix 0 stands for "the vertex itself" and
  suffixes 1..s address fresh successors;
* anything else hashable (typically a string) for scratch graphs.

Two places look inside name sets.  ``rules.image_template`` checks an
image written over name sets, keeping its name sets disjoint, and in the
same pass turns each element into a (disk id, suffix) pair, which the
rule step places and ``codec.rank_image`` numbers; a rule that answers
in those pairs is checked on them by ``rules.check_template``.  ``consistent``, which the validator runs
on two renamed images, numbers their name elements and glues those ints
with ``glue_all``, the step's own union-find.
"""
from __future__ import annotations

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

    __slots__ = ("degree", "vertices", "_labels", "_ports", "_edges", "_hash")

    def __init__(self, degree, vertices, edges, labels):
        """Check and store a graph given by names.  An edge given twice,
        either way round, is one edge."""
        if degree < 1:
            raise GraphError("degree must be at least 1")
        self.degree = degree = int(degree)
        self.vertices = vertices = frozenset(vertices)
        self._labels = labels = dict(labels)
        self._edges = self._hash = None
        if labels.keys() != vertices:
            missing = vertices - labels.keys()
            extra = labels.keys() - vertices
            raise GraphError(f"labels must cover vertices exactly "
                             f"(missing {len(missing)}, extra {len(extra)})")
        pm = self._ports = {}
        for e in edges:
            ends = tuple(e)
            if len(ends) != 2 or ends[0] == ends[1]:
                raise GraphError(f"edge must join two distinct port slots: {ends!r}")
            a, b = ends
            if pm.get(a) == b:
                continue  # the same edge again
            for (v, p) in ends:
                if v not in vertices:
                    raise GraphError(f"edge endpoint {v!r} is not a vertex")
                if not (1 <= p <= degree):
                    raise GraphError(f"port {p} out of range 1..{degree}")
                if (v, p) in pm:
                    raise PortConflict(f"port {p} of {v!r} used by two edges")
            pm[a] = b
            pm[b] = a

    @property
    def labels(self) -> dict:
        return self._labels

    def label(self, v):
        return self.labels[v]

    def port_map(self) -> dict:
        """dict (vertex, port) -> (other vertex, other port), both directions."""
        return self._ports

    @property
    def edges(self) -> frozenset:
        """Each edge of the port map once, as a frozenset of its two slots."""
        if self._edges is None:
            self._edges = frozenset(map(frozenset, self.port_map().items()))
        return self._edges

    def __eq__(self, other):
        if type(other) is not PortGraph:
            return NotImplemented
        return (self.degree == other.degree and self._labels == other._labels
                and self._ports == other._ports)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.degree, frozenset(self._labels.items()),
                               frozenset(self._ports.items())))
        return self._hash

    def counts(self) -> tuple:
        """(|V|, |E|)."""
        return len(self.vertices), len(self.port_map()) // 2

    def __repr__(self):
        return "<{} degree={} |V|={} |E|={}>".format(type(self).__name__, self.degree,
                                                     *self.counts())


class _WordViews:
    """The word views of one port array, each built on first use.

    Names never depend on labels, so every labelling of the array
    shares one of these.  The port map holds one slot tuple per slot,
    shared by its keys and values.
    """

    __slots__ = ("degree", "nbr", "_words", "_ids", "_vertices", "_ports")

    def __init__(self, degree, nbr):
        self.degree, self.nbr = degree, nbr
        self._words = self._ids = self._vertices = self._ports = None

    @property
    def words(self) -> tuple:
        if self._words is None:
            d, nbr = self.degree, self.nbr
            words = [EPSILON] + [None] * (len(nbr) // d - 1)
            for v, w in enumerate(words):  # a vertex's parent comes before it
                for a in range(d):
                    s = nbr[v * d + a]
                    if s >= 0 and words[s // d] is None:
                        words[s // d] = w + ((a + 1, s % d + 1),)
            self._words = tuple(words)
        return self._words

    @property
    def ids(self) -> dict:
        if self._ids is None:
            self._ids = {w: i for i, w in enumerate(self.words)}
        return self._ids

    @property
    def vertices(self) -> frozenset:
        if self._vertices is None:
            self._vertices = frozenset(self.words)
        return self._vertices

    @property
    def ports(self) -> dict:
        if self._ports is None:
            slot = [(w, a) for w in self.words for a in range(1, self.degree + 1)]
            self._ports = {slot[s]: slot[t] for s, t in enumerate(self.nbr) if t >= 0}
        return self._ports


class CayleyGraph(PortGraph):
    """A canonical pointed connected port graph, stored as its port array.

    ``nbr`` and ``lab`` are the breadth-first form the module docstring
    describes; equality and hashing read only them.  The word views are
    built on first use.
    """

    __slots__ = ("nbr", "lab", "_views")

    def __init__(self, degree, vertices, edges, labels):
        """The graph given by words; GraphError unless every name is the
        vertex's least word from the empty word."""
        g = PortGraph(degree, vertices, edges, labels)
        x = _search(g, EPSILON) if EPSILON in g.vertices else None
        if x is None or (x.vertices, x.port_map(), x.labels) != (
                g.vertices, g.port_map(), g.labels):
            raise GraphError("vertex names are not their least words from the empty word")
        self.degree, self.nbr, self.lab, self._views = x.degree, x.nbr, x.lab, x._views
        self._labels = self._edges = self._hash = None

    @classmethod
    def _of(cls, degree, nbr, lab) -> CayleyGraph:
        """The graph of a port array and label tuple already in least-word order."""
        x = object.__new__(cls)
        x.degree, x.nbr, x.lab, x._views = degree, nbr, lab, _WordViews(degree, nbr)
        x._labels = x._edges = x._hash = None
        return x

    @property
    def words(self) -> tuple:
        """The least word of each id: vertex i is named ``words[i]``."""
        return self._views.words

    @property
    def vertices(self) -> frozenset:
        return self._views.vertices

    @property
    def labels(self) -> dict:
        if self._labels is None:
            self._labels = dict(zip(self.words, self.lab))
        return self._labels

    def port_map(self) -> dict:
        return self._views.ports

    def relabel(self, labels) -> CayleyGraph:
        """The same graph with new labels, given in id order.

        Names never depend on labels, so the port array and the word
        views are shared, not rebuilt.
        """
        lab = tuple(labels)
        if len(lab) != len(self.lab):
            raise GraphError(f"{len(lab)} labels for {len(self.lab)} vertices")
        g = CayleyGraph._of(self.degree, self.nbr, lab)
        g._views = self._views
        return g

    def __eq__(self, other):
        if type(other) is not CayleyGraph:
            return NotImplemented
        return self.degree == other.degree and self.nbr == other.nbr and self.lab == other.lab

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.degree, self.nbr, self.lab))
        return self._hash

    def counts(self) -> tuple:  # no word is built; an edge counts at its lower slot
        return len(self.lab), sum(s < t for s, t in enumerate(self.nbr))


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


def ball(degree, nbr, labels, start=0, radius=None):
    """One breadth-first search over a port array: the ball around ``start``.

    ``nbr`` is a port array over any ids (see the module docstring) and
    ``labels`` gives each id's label.  The search scans ports in
    ascending order, so the ids it hands out follow least-word order.
    Edges leaving the radius are dropped; with ``radius`` None the
    search keeps every vertex it reaches.  Returns the ball's own port
    array, its label tuple and its visit order: ``order[i]`` is the id
    in ``nbr`` of the ball's vertex i.
    """
    d = degree
    new = {start: 0}
    order = [start]
    ports = []
    layer_end, depth = 1, 0
    for i, v in enumerate(order):
        if i == layer_end:
            layer_end, depth = len(order), depth + 1
        grow = depth != radius
        for s in nbr[v * d:v * d + d]:
            if s < 0:
                ports.append(-1)
                continue
            u = new.get(s // d)
            if u is None:
                if not grow:
                    ports.append(-1)
                    continue
                u = new[s // d] = len(order)
                order.append(s // d)
            ports.append(u * d + s % d)
    return tuple(ports), tuple(map(labels.__getitem__, order)), order


def from_port_array(degree, nbr, labels, start=0, radius=None) -> CayleyGraph:
    """The canonical graph of the vertices within ``radius`` of ``start``:
    the ball of ``ball``, stored as it comes out of the search."""
    ports, lab, _ = ball(degree, nbr, labels, start, radius)
    return CayleyGraph._of(degree, ports, lab)


def _search(g: PortGraph, center, radius=None) -> CayleyGraph:
    """``from_port_array`` from the vertex ``center`` of g.

    A plain ``PortGraph`` is first numbered in label order, in time
    linear in its size.
    """
    d = g.degree
    if isinstance(g, CayleyGraph):
        nbr, lab = g.nbr, g.lab
        start = 0 if center == EPSILON else g._views.ids.get(center)
    else:
        ids = {v: i for i, v in enumerate(g.labels)}
        nbr = [-1] * (len(ids) * d)
        for (v, a), (u, b) in g.port_map().items():
            nbr[ids[v] * d + a - 1] = ids[u] * d + b - 1
        lab = tuple(g.labels.values())
        start = ids.get(center)
    if start is None:
        raise GraphError(f"pointer {center!r} is not a vertex")
    return from_port_array(d, nbr, lab, start, radius)


def canonicalize(g: PortGraph, pointer) -> CayleyGraph:
    """Rename every vertex to its least word from ``pointer``.

    Raises DisconnectedInput when some vertex is unreachable.
    """
    if isinstance(g, CayleyGraph) and pointer == EPSILON:
        return g
    x = _search(g, pointer)
    n = len(g.lab) if isinstance(g, CayleyGraph) else len(g.vertices)
    if len(x.lab) != n:
        raise DisconnectedInput(f"{n - len(x.lab)} vertices unreachable from pointer")
    return x


def walk(x: CayleyGraph, word: Word, start=EPSILON):
    """Follow a word of port pairs from ``start`` and return the end vertex.

    The steps run over the port array, so only ``start`` and the end are
    words.
    """
    v = 0 if start == EPSILON else x._views.ids.get(start)
    if v is None:
        raise NoSuchPath(f"start vertex {start!r} not in graph")
    d, nbr = x.degree, x.nbr
    for (a, b) in word:
        s = nbr[v * d + a - 1] if 1 <= a <= d else -1
        if s < 0:
            raise NoSuchPath(f"no edge on port {a} of {x.words[v]!r}")
        if s % d != b - 1:
            raise NoSuchPath(f"edge on port {a} of {x.words[v]!r} enters port "
                             f"{s % d + 1}, not {b}")
        v = s // d
    return x.words[v]


def shift(x: CayleyGraph, word: Word) -> CayleyGraph:
    """Re-point the graph at the end of ``word`` and re-canonicalize."""
    return canonicalize(x, walk(x, word))


def eccentricity(x: CayleyGraph) -> int:
    """Distance from the pointer to the farthest vertex: the last id.

    A vertex's least neighbour is the one the search reached it from,
    so the hops from the last id to the pointer are counted on the port
    array, with no word built.
    """
    d, nbr = x.degree, x.nbr
    v = len(x.lab) - 1
    hops = 0
    while v:
        v = min(s for s in nbr[v * d:v * d + d] if s >= 0) // d
        hops += 1
    return hops


def disk_around(x: PortGraph, center, r: int) -> Disk:
    """The induced subgraph on the radius-r ball around ``center``, canonicalized there.

    Edges leaving the ball are dropped; edges between two ball vertices
    (including self-loops) are kept.  Canonical names of surviving
    vertices agree with ``shift(x, path-to-center)`` because every
    shortest path to a ball vertex stays inside the ball, so the ball's
    least words are already its canonical names.  On a canonical graph
    the search reads the ports of the ball's own vertices only, so
    extracting a disk costs in proportion to the ball, not to |V| or |E|
    of ``x``.
    """
    return Disk(_search(x, center, r), r)


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


def consistent(g: PortGraph, h: PortGraph) -> Consistency:
    """Do g and h agree wherever they share vertices?

    Vertices are name sets, and two are shared when their sets intersect
    (such vertices denote one vertex once glued).  Agreement requires
    equal labels and no port carrying two different edges: the name
    elements are numbered, g's first, and glued by ``glue_all``, whose
    clash is the witness.  ``nonempty`` reports whether the element sets
    of g and h intersect.  A vertex whose name is not a name set raises
    GraphError, since reading it as one would glue on its characters.
    """
    if g.degree != h.degree:
        return Consistency(False, False, "port counts differ")
    d = g.degree
    number, elems, joins, labels, ends = {}, [], [], [], []
    for x in (g, h):
        k = {}
        for v in x.labels:
            if not isinstance(v, frozenset):
                raise GraphError(f"vertex {v!r} is not a name set, so it cannot be glued")
            i = k[v] = len(elems)
            rest = iter(v)  # an empty name set stands for itself
            elems.append(number.setdefault(next(rest, v), len(number)))
            for e in rest:
                joins.append((i, number.setdefault(e, len(number))))
        labels += x.labels.values()
        for (u, a), (v, b) in x.port_map().items():
            s, t = k[u] * d + a - 1, k[v] * d + b - 1
            if s < t:  # each edge once, at its lower slot
                ends += (s, t)
        if x is g:
            seen, at, joined = len(number), len(elems), len(joins)
    if not elems:
        return Consistency(True, False)  # nothing to glue
    # g's elements are numbered below ``seen``
    nonempty = (min(elems[at:], default=seen) < seen
                or any(e < seen for _, e in joins[joined:]))
    try:
        glue_all(d, elems, labels, ends, joins)
    except InconsistentUnion as clash:
        return Consistency(False, nonempty, str(clash))
    return Consistency(True, nonempty)


def glue_all(degree, elems, labels, ends, joins=()):
    """Glue vertices that share an int element into one port array.

    Vertex k holds the int element ``elems[k]``, and e too for each pair
    (k, e) in ``joins``; its label is ``labels[k]``.  ``ends`` holds each
    edge once as two slots, flattened: slot ``k*degree + a-1`` is port a
    of vertex k.  One union-find over the elements makes the classes,
    numbered in order of their first vertex, so vertex 0 is in class 0.
    A class must carry one label, and each of its ports at most one
    edge; an edge may not join a port slot to itself.  Order does not
    matter up to the numbering of the classes.  Returns the glued port
    array over class ids, its labels, and each vertex's class id.

    Rule application glues rule images this way, each image element
    placed at an int (see ``cgd.rules.apply_rule``); ``consistent``
    glues two images whose name elements it has numbered.
    """
    if not elems:
        raise GraphError("nothing to glue")
    parent = {}  # element -> another element of its class; roots are absent

    def find(e):
        root = e
        while root in parent:
            root = parent[root]
        while e != root:
            parent[e], e = root, parent[e]
        return root

    for k, e in joins:
        a, b = find(elems[k]), find(e)
        if a != b:
            parent[b] = a
    ids = {}
    cls = [ids.setdefault(e, len(ids)) for e in (map(find, elems) if parent else elems)]
    lab = []
    for c, label in zip(cls, labels):
        if c == len(lab):  # the class's first vertex
            lab.append(label)
        elif lab[c] != label:
            raise InconsistentUnion(f"label clash on shared vertex: {lab[c]!r} vs {label!r}")
    d = degree
    nbr = [-1] * (len(lab) * d)
    slot = iter(ends)
    for s, t in zip(slot, slot):
        s, t = cls[s // d] * d + s % d, cls[t // d] * d + t % d
        if s == t:
            raise InconsistentUnion(f"edge collapses onto a single port slot ({s % d + 1})")
        if nbr[s] != t:
            if nbr[s] >= 0:
                raise InconsistentUnion(f"port {s % d + 1} double-booked on a shared vertex")
            nbr[s] = t
        if nbr[t] != s:
            if nbr[t] >= 0:
                raise InconsistentUnion(f"port {t % d + 1} double-booked on a shared vertex")
            nbr[t] = s
    return tuple(nbr), tuple(lab), cls
