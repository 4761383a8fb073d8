"""Local rewriting rules and their application by gluing.

A local rule maps disks of a fixed radius to small graphs (images)
whose vertices carry name sets built from the disk's vertex names: an
element (w, 0) claims "this image vertex is the continuation of disk
vertex w", an element (w, z) with z >= 1 claims "the z-th fresh vertex
budded off w".  Over disk ids the element is the pair (id of w, z), and
an image written that way is its template (``image_template``).  A rule
is asked for a disk's template in one place, ``LocalRule._miss``.
Applying a rule to a whole graph takes the image of every vertex's
disk, places each image element at the vertex it names in the whole
graph, and glues everything; shared claims merge, and the consistency
conditions below guarantee they merge cleanly.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain

from .corpus import random_port_graph
from .graph import (
    EPSILON,
    CayleyGraph,
    DisconnectedInput,
    Disk,
    GraphError,
    PortConflict,
    PortGraph,
    ball,
    consistent,
    disk,
    disk_around,
    eccentricity,
    from_port_array,
    glue_all,
    walk,
)


class RuleError(Exception):
    pass


class MissingEpsilon(RuleError):
    pass


class ImageTooLarge(RuleError):
    pass


class WrongRadius(RuleError):
    pass


class InvalidImageName(RuleError):
    pass


class PartialRuleHole(RuleError):
    """The rule offers no image for this disk."""

    def __init__(self, vertex, disk_, message=None):
        super().__init__(message)
        self.vertex = vertex
        self.disk = disk_

    def __str__(self):
        return self.args[0] or f"no image for the disk at {self.vertex!r}"


@dataclass(frozen=True)
class RuleParams:
    """Shared signature of a rule: alphabet, radius and image budget.

    ``suffix_count`` caps the fresh-successor index in image names;
    by default it equals ``bound`` which is always enough.
    """
    port_count: int
    labels: tuple
    radius: int
    bound: int
    suffix_count: int = None

    def __post_init__(self):
        if self.suffix_count is None:
            object.__setattr__(self, "suffix_count", self.bound)
        if self.port_count < 1:
            raise RuleError("port_count must be at least 1")
        if self.radius < 0 or self.bound < 1 or self.suffix_count < 0:
            raise RuleError("radius, bound and suffix_count must be sensible")
        if not self.labels or len(set(self.labels)) != len(self.labels):
            raise RuleError("labels must be a nonempty tuple without repeats")
        object.__setattr__(self, "labels", tuple(self.labels))


def check_template(p: RuleParams, n: int, t) -> None:
    """Raise why ``t`` is no template of an image of an n-vertex disk under ``p``.

    The checks are ``image_template``'s, read off the ints, and each
    raises the class that the matching name-set image meets: an id past
    the disk or a suffix past the count, and a pair in two vertices, raise
    InvalidImageName; no (0, 0) MissingEpsilon; more vertices than the
    bound ImageTooLarge; a label outside the alphabet RuleError.  A slot
    out of range or paired with itself raises GraphError, and a slot used
    twice PortConflict, as ``PortGraph`` does for such an edge.  The
    template must also be in ``image_template``'s order, or RuleError.
    """
    heads, more, labels, ends = t
    k = len(heads)
    if k > p.bound:
        raise ImageTooLarge(f"{k} vertices exceed the bound {p.bound}")
    if len(labels) != k:
        raise RuleError(f"template has {len(labels)} labels for {k} vertices")
    pairs = list(heads)
    for v, i, z in more:
        if not 0 <= v < k:
            raise RuleError(f"template pair {(i, z)!r} joins no vertex ({v})")
        pairs.append((i, z))
    s = p.suffix_count
    for i, z in pairs:
        if not (0 <= i < n and 0 <= z <= s):
            raise InvalidImageName(f"element {(i, z)!r} not addressable from this disk")
    if len(set(pairs)) != len(pairs):
        twice = next(q for j, q in enumerate(pairs) if q in pairs[:j])
        raise InvalidImageName(f"element {twice!r} appears in two image vertices")
    for label in labels:
        if label not in p.labels:
            raise RuleError(f"image label {label!r} outside the rule alphabet")
    if (0, 0) not in pairs:
        raise MissingEpsilon("no image vertex claims the disk center")
    lows, highs = ends[::2], ends[1::2]
    if ends:
        m = k * p.port_count
        if len(lows) != len(highs) or min(ends) < 0 or max(ends) >= m:
            raise GraphError(f"template slots {ends!r} are not pairs of the {m} slots "
                             f"of its vertices")
        if len(set(ends)) != len(ends):
            if any(map(int.__eq__, lows, highs)):
                raise GraphError("edge must join two distinct port slots")
            raise PortConflict("a template slot is used by two edges")
    # pairs and slots are distinct, so sorted means strictly ascending
    if (heads != tuple(sorted(heads)) or not all(map(int.__lt__, lows, highs))
            or lows != tuple(sorted(lows))
            or more and (more != tuple(sorted(more))
                         or any((i, z) < heads[v] for v, i, z in more))):
        raise RuleError("template is not in image_template's order")


# --- rules written over name sets --------------------------------------------
# A rule's name-set form is ``fn(d)``: it reads a ``Disk`` and gives an image
# over name sets, or None for a hole.  Every crossing between that form and
# disk ids is here: ``image_template`` checks an image and gives its template,
# ``named_image`` is its inverse on a checked template, ``_view`` (ids to
# names) gives a rule written in disk ids its ``fn``, and ``_fn_template``
# (names to ids) is the one adapter through which ``LocalRule._miss`` asks a
# rule written over name sets.

def image_template(p: RuleParams, d: Disk, img: PortGraph) -> tuple:
    """Check that ``img`` is an image of ``d`` under ``p`` and return its template.

    A wrong image raises the RuleError that says why.  The template is
    the image over disk ids, what a step needs to place it anywhere:
    each element (w, z) becomes the pair (disk id of w, z), and the
    vertices are ordered by their sorted pairs, so the vertex claiming
    the disk centre, (0, 0), comes first.  It holds each vertex's least
    pair, each further pair as (vertex, disk id, suffix), the vertices'
    labels, and each edge once as two slots ``k*d + a-1``, the lower
    first, the edges in ascending order.
    """
    if img.degree != p.port_count:
        raise RuleError("image degree differs from the rule's port count")
    if len(img.vertices) > p.bound:
        raise ImageTooLarge(f"{len(img.vertices)} vertices exceed the bound {p.bound}")
    at = {w: i for i, w in enumerate(d.graph.words)}
    seen = set()
    blocks = []  # per image vertex: its sorted pairs, its label and itself
    for v in img.vertices:
        if not isinstance(v, frozenset) or not v:
            raise InvalidImageName(f"image vertex {v!r} is not a nonempty name set")
        pairs = []
        for elem in v:
            if (not isinstance(elem, tuple) or len(elem) != 2
                    or elem[0] not in at
                    or not isinstance(elem[1], int)
                    or not 0 <= elem[1] <= p.suffix_count):
                raise InvalidImageName(f"element {elem!r} not addressable from this disk")
            pair = (at[elem[0]], elem[1])
            if pair in seen:
                raise InvalidImageName(f"element {elem!r} appears in two image vertices")
            seen.add(pair)
            pairs.append(pair)
        label = img.label(v)
        if label not in p.labels:
            raise RuleError(f"image label {label!r} outside the rule alphabet")
        blocks.append((sorted(pairs), label, v))
    if (0, 0) not in seen:
        raise MissingEpsilon("no image vertex claims the disk center")
    blocks.sort()  # the pairs of two vertices are disjoint, so they decide
    k = {v: i for i, (_, _, v) in enumerate(blocks)}
    deg = img.degree
    edges = []
    for (u, a), (v, b) in img.port_map().items():
        s, t = k[u] * deg + a - 1, k[v] * deg + b - 1
        if s < t:
            edges.append((s, t))
    edges.sort()
    return (tuple(pairs[0] for pairs, _, _ in blocks),
            tuple((i, j, z) for i, (pairs, _, _) in enumerate(blocks) for j, z in pairs[1:]),
            tuple(label for _, label, _ in blocks), tuple(chain.from_iterable(edges)))


def named_image(p: RuleParams, d: Disk, t) -> PortGraph:
    heads, more, labels, ends = t
    words = d.graph.words
    sets = [[(words[i], z)] for i, z in heads]
    for v, i, z in more:
        sets[v].append((words[i], z))
    names = list(map(frozenset, sets))
    deg = p.port_count
    slot = iter(ends)
    edges = [((names[a // deg], a % deg + 1), (names[b // deg], b % deg + 1))
             for a, b in zip(slot, slot)]
    return PortGraph(deg, names, edges, dict(zip(names, labels)))


# ``fn`` is a closure over ``p`` and ``ids``, not a bound method of the rule:
# a rule holding its own method is a reference cycle, so a dropped rule's
# memos would stay alive until the cycle collector runs.
def _view(p: RuleParams, ids):
    def fn(d: Disk):
        g = d.graph
        t = ids(g.nbr, g.lab)
        if t is None:
            return None
        check_template(p, len(g.lab), t)
        return named_image(p, d, t)

    return fn


def _fn_template(f, nbr, lab) -> tuple:
    p = f.params
    d = Disk(CayleyGraph._of(p.port_count, nbr, lab), p.radius)
    img = f.fn(d)  # read now: a fn wrapped after construction is the one asked
    if img is None:
        raise PartialRuleHole(None, d)
    return image_template(p, d, img)


class LocalRule:
    """A (possibly partial) map from radius-r disks to images.

    A rule is given one of two ways.  ``ids(nbr, lab)`` reads a disk as
    its port array and labels, the form ``graph.ball`` returns, and gives
    the image's template (see ``image_template``) or None for a hole.
    ``fn(d)`` is the name-set authoring form: it reads a ``Disk`` and
    gives a name-set image or None.  A rule given by ``ids`` has as
    ``fn`` the view of its templates, so every rule answers both ways.

    ``_miss`` is the one place a rule is asked about a disk.  It checks
    each image once, an ids answer with ``check_template`` and a
    name-set image with ``image_template`` (through ``_fn_template``),
    and keeps it as its template in one memo, keyed by the disk's port
    array and labels, which holds no disk.  ``image`` builds the
    name-set view of a template on first ask and keeps it apart.
    ``registry_key`` names rules that cannot be tabulated within any
    reasonable budget so they can still be described and decoded.
    """

    __slots__ = ("params", "fn", "ids", "registry_key", "_memo", "_views")

    def __init__(self, params: RuleParams, fn=None, registry_key=None, *, ids=None):
        if (fn is None) == (ids is None):
            raise RuleError("a rule is given by an ids function or a name-set fn, "
                            "not both or neither")
        self.params = params
        self.fn = _view(params, ids) if fn is None else fn
        self.ids = ids
        self.registry_key = registry_key
        self._memo = {}   # (nbr, lab) of a disk -> its checked template
        self._views = {}  # (nbr, lab) of a disk -> the template's name-set image

    def _miss(self, nbr, lab) -> tuple:
        """Ask the rule about a disk not seen before; memoize and return
        the checked template.  A hole raises PartialRuleHole carrying the
        disk: the adapter's, or one built here."""
        p = self.params
        for lbl in lab:
            if lbl not in p.labels:
                raise RuleError(f"disk label {lbl!r} outside the rule alphabet")
        try:
            if self.ids is None:
                t = _fn_template(self, nbr, lab)
            else:
                t = self.ids(nbr, lab)
                if t is None:
                    raise PartialRuleHole(None, None)
                check_template(p, len(lab), t)
        except PartialRuleHole as hole:
            if hole.disk is None:
                hole.disk = Disk(CayleyGraph._of(p.port_count, nbr, lab), p.radius)
            raise
        self._memo[nbr, lab] = t
        return t

    def image(self, d: Disk) -> PortGraph:
        p = self.params
        if d.radius != p.radius:
            raise WrongRadius(f"rule wants radius {p.radius}, got {d.radius}")
        g = d.graph
        if g.degree != p.port_count:
            raise RuleError(f"rule wants {p.port_count} ports, got {g.degree}")
        key = (g.nbr, g.lab)
        view = self._views.get(key)
        if view is None:
            t = self._memo.get(key) or self._miss(*key)
            view = self._views[key] = named_image(p, d, t)
        return view

    def __repr__(self):
        return (f"<LocalRule {self.registry_key or 'fn'} r={self.params.radius} "
                f"b={self.params.bound}>")


def _normalized_image(f: LocalRule, x: CayleyGraph, u) -> PortGraph:
    """Image of u's disk with names rewritten into x's coordinates.

    Disk vertex names are walks from u, so each element (p, z) becomes
    (walk(x, p, from u), z); distinct disk vertices land on distinct
    graph vertices, hence the rewrite never collides.  The validator
    compares images in this form.
    """
    d = disk_around(x, u, f.params.radius)
    try:
        img = f.image(d)
    except PartialRuleHole as hole:
        hole.vertex = u
        raise
    at = {p: walk(x, p, start=u) for p in d.graph.vertices}
    names = {v: frozenset((at[p], z) for (p, z) in v) for v in img.vertices}
    edges = [((names[a], i), (names[b], j)) for (a, i), (b, j) in map(tuple, img.edges)]
    return PortGraph(img.degree, names.values(), edges,
                     {names[v]: img.label(v) for v in img.vertices})


def apply_rule(f: LocalRule, x: CayleyGraph) -> CayleyGraph:
    """One synchronous step: glue the images of every vertex's disk.

    The step runs on vertex ids.  One search around each id gives the
    disk's port array, labels and visit order; the rule's memo, keyed
    by the first two, gives the image's template.  A miss asks the rule
    for the template in the same ids (``LocalRule._miss``), so a step
    builds no ``Disk`` unless the rule is written over name sets.  The
    template's element (disk id i, suffix z) is placed at the int
    ``order[i] * (s+1) + z``, s being the rule's suffix count, and
    ``glue_all`` merges the placed images.  The output is pointed at
    the image of the input pointer, which exists because every image
    claims its disk center: that is element 0, in the first vertex
    glued.
    """
    p = f.params
    d = x.degree
    if d != p.port_count:
        raise RuleError(f"rule wants {p.port_count} ports, graph has {d}")
    r, m = p.radius, p.suffix_count + 1
    nbr, xlab, memo = x.nbr, x.lab, f._memo
    elems, joins, labels, ends = [], [], [], []
    for u in range(len(xlab)):
        ports, lab, order = ball(d, nbr, xlab, u, r)
        entry = memo.get((ports, lab))
        if entry is None:
            try:
                entry = f._miss(ports, lab)
            except PartialRuleHole as hole:
                hole.vertex = x.words[u]
                raise
        heads, more, image_labels, image_ends = entry
        base = len(elems)
        elems += [order[i] * m + z for i, z in heads]
        if more:
            joins += [(base + k, order[i] * m + z) for k, i, z in more]
        labels += image_labels
        ends += [base * d + s for s in image_ends]
    glued, glued_labels, _ = glue_all(d, elems, labels, ends, joins)
    y = from_port_array(d, glued, glued_labels)
    if len(y.lab) != len(glued_labels):
        raise DisconnectedInput(f"{len(glued_labels) - len(y.lab)} vertices unreachable "
                                f"from pointer")
    return y


def iterate(f: LocalRule, x: CayleyGraph, steps: int) -> CayleyGraph:
    for _ in range(steps):
        x = apply_rule(f, x)
    return x


def orbit(f: LocalRule, x: CayleyGraph, steps: int) -> list:
    out = [x]
    for _ in range(steps):
        out.append(apply_rule(f, out[-1]))
    return out


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    bound_ok: bool
    coverage: str           # "exhaustive" or "sampled"
    checked: int
    witnesses: tuple

    def __bool__(self):
        return self.ok


def _check_ambient(f: LocalRule, ambient: CayleyGraph, radius: int, witnesses):
    """Compare the center's image with each image whose disk fits in the
    ambient (canonical ambient: a name's length is its distance from the center)."""
    center = _normalized_image(f, ambient, EPSILON)
    for u in ambient.words[1:]:  # in name_key order, so by distance from the center
        if len(u) > radius - f.params.radius:
            break
        other = _normalized_image(f, ambient, u)
        verdict = consistent(center, other)
        if not verdict.ok:
            witnesses.append(f"images at {EPSILON!r} and {u!r} disagree: "
                             f"{verdict.witness} (ambient {ambient!r})")
        elif len(u) == 1 and not verdict.nonempty:
            witnesses.append(f"images of adjacent vertices {EPSILON!r} and {u!r} "
                             f"do not even touch (ambient {ambient!r})")


def validate_local_rule(f: LocalRule, *, exhaustive=False, samples=1000,
                        budget=10_000, seed=0) -> ValidationReport:
    """Check the consistency conditions that make a rule gluable.

    Near condition: images of vertices at distance <= 1 must agree and
    actually overlap, probed inside ambient disks of radius r + 1.  Far
    condition: images of vertices up to distance 2r + 2 must agree,
    probed inside ambient disks of radius 3r + 2 (beyond that range the
    images cannot share names).  Each image is checked on the way: a
    bad one is a witness, and one past the bound clears ``bound_ok``.
    The budget is decided once, on the radius-(3r+2) catalog: if it
    fits, every ambient is enumerated, the near ones being its disks of
    eccentricity at most r + 1; if not, ``samples`` random ambients are
    drawn (RuleError if fewer than one), or ``exhaustive=True`` raises
    BudgetExceeded.  Sampling is no proof, but wrong rules rarely survive it.
    """
    from .codec import BudgetExceeded, enumerate_disks

    p = f.params
    r = p.radius
    witnesses = []
    bound_ok = True
    try:
        far = enumerate_disks(p.port_count, p.labels, 3 * r + 2, budget=budget)
        ambients = [(d.graph, r + 1) for d in far if eccentricity(d.graph) <= r + 1]
        ambients += [(d.graph, 3 * r + 2) for d in far]
    except BudgetExceeded:
        if exhaustive:
            raise
        ambients = None
    exhaustive = ambients is not None
    if not exhaustive:
        if samples < 1:
            raise RuleError(f"cannot check a rule on {samples} sampled ambients")
        rng = random.Random(seed)
        ambients = []
        for _ in range(samples):
            radius = r + 1 if rng.random() < 0.5 else 3 * r + 2
            size = rng.randint(1, 2 * (radius + 1) * max(2, p.port_count))
            g, root = random_port_graph(rng, degree=p.port_count, size=size, alphabet=p.labels)
            ambients.append((disk_around(g, root, radius).graph, radius))
    for ambient, radius in ambients:
        try:
            _check_ambient(f, ambient, radius, witnesses)
        except PartialRuleHole as hole:
            witnesses.append(f"rule is not total: no image at {hole.vertex!r} "
                             f"in ambient {ambient!r}")
        except RuleError as err:
            bound_ok &= not isinstance(err, ImageTooLarge)
            witnesses.append(f"bad image on ambient {ambient!r}: {err}")
    return ValidationReport(ok=not witnesses, bound_ok=bound_ok,
                            coverage="exhaustive" if exhaustive else "sampled",
                            checked=len(ambients), witnesses=tuple(witnesses))


def continuity_modulus(f: LocalRule, r: int) -> int:
    """Input agreement radius that pins down the output disk of radius r.

    One step reads radius ``f.params.radius`` around each vertex, and
    the glue can pull names from one vertex beyond the output disk,
    hence the extra 1.
    """
    return r + f.params.radius + 1


def check_continuity(f: LocalRule, r: int, pairs) -> list:
    """Return the pairs violating the modulus; empty means it held."""
    m = continuity_modulus(f, r)
    bad = []
    for x, y in pairs:
        if disk(x, m) != disk(y, m):
            continue
        if disk(apply_rule(f, x), r) != disk(apply_rule(f, y), r):
            bad.append((x, y))
    return bad
