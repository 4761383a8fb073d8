"""Local rewriting rules and their application by gluing.

A local rule maps disks of a fixed radius to small graphs (images)
whose vertices carry name sets built from the disk's vertex names: an
element (w, 0) claims "this image vertex is the continuation of disk
vertex w", an element (w, z) with z >= 1 claims "the z-th fresh vertex
budded off w".  Applying a rule to a whole graph takes the image of
every vertex's disk, rewrites each image name through the vertex's
position, and glues everything; shared claims merge, and the
consistency conditions below guarantee they merge cleanly.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .graph import (
    EPSILON,
    EPS_ELEM,
    CayleyGraph,
    Disk,
    PortGraph,
    canonicalize,
    consistent,
    disk,
    disk_around,
    glue_all,
    name_key,
    walk,
    _ball,
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
        self.vertex = vertex
        self.disk = disk_
        super().__init__(message or f"no image for the disk at {vertex!r}")


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


class LocalRule:
    """A (possibly partial) map from radius-r disks to images.

    Backed by an explicit table, a function, or both; function results
    are validated once and memoized.  ``registry_key`` names rules that
    cannot be tabulated within any reasonable budget so they can still
    be described and decoded.
    """

    __slots__ = ("params", "table", "fn", "registry_key", "_memo", "_label_set")

    def __init__(self, params: RuleParams, table=None, fn=None, registry_key=None):
        self.params = params
        self.table = dict(table) if table else {}
        self.fn = fn
        self.registry_key = registry_key
        self._memo = {}
        self._label_set = frozenset(params.labels)
        for d, img in self.table.items():
            self._check_image(d, img)

    @property
    def radius(self) -> int:
        return self.params.radius

    def image(self, d: Disk) -> PortGraph:
        if d.radius != self.params.radius:
            raise WrongRadius(f"rule wants radius {self.params.radius}, got {d.radius}")
        if d.graph.degree != self.params.port_count:
            raise RuleError(f"rule wants {self.params.port_count} ports, got {d.graph.degree}")
        for v in d.graph.vertices:
            if d.graph.label(v) not in self._label_set:
                raise RuleError(f"disk label {d.graph.label(v)!r} outside the rule alphabet")
        hit = self.table.get(d)
        if hit is not None:
            return hit
        hit = self._memo.get(d)
        if hit is not None:
            return hit
        if self.fn is not None:
            img = self.fn(d)
            if img is not None:
                self._check_image(d, img)
                self._memo[d] = img
                return img
        raise PartialRuleHole(None, d)

    def _check_image(self, d: Disk, img: PortGraph):
        p = self.params
        if img.degree != p.port_count:
            raise RuleError("image degree differs from the rule's port count")
        if len(img.vertices) > p.bound:
            raise ImageTooLarge(f"{len(img.vertices)} vertices exceed the bound {p.bound}")
        source_names = d.graph.vertices
        seen_eps = False
        for v in img.vertices:
            if not isinstance(v, frozenset) or not v:
                raise InvalidImageName(f"image vertex {v!r} is not a nonempty name set")
            for elem in v:
                if (not isinstance(elem, tuple) or len(elem) != 2
                        or elem[0] not in source_names
                        or not isinstance(elem[1], int)
                        or not 0 <= elem[1] <= p.suffix_count):
                    raise InvalidImageName(f"element {elem!r} not addressable from this disk")
            if EPS_ELEM in v:
                seen_eps = True
            if img.label(v) not in self._label_set:
                raise RuleError(f"image label {img.label(v)!r} outside the rule alphabet")
        if not seen_eps:
            raise MissingEpsilon("no image vertex claims the disk center")

    def __repr__(self):
        kind = self.registry_key or ("table" if self.table else "fn")
        return f"<LocalRule {kind} r={self.params.radius} b={self.params.bound}>"


def _normalized_image(f: LocalRule, x: CayleyGraph, u) -> PortGraph:
    """Image of u's disk with names rewritten into x's coordinates.

    Disk vertex names are walks from u, so each element (p, z) becomes
    (walk(x, p, from u), z); distinct disk vertices land on distinct
    graph vertices, hence the rewrite never collides.
    """
    d = disk_around(x, u, f.params.radius)
    try:
        img = f.image(d)
    except PartialRuleHole as hole:
        raise PartialRuleHole(u, hole.disk) from None
    at = {p: walk(x, p, start=u) for p in d.graph.vertices}
    names = {v: frozenset((at[p], z) for (p, z) in v) for v in img.vertices}
    edges = [((names[a], i), (names[b], j)) for (a, i), (b, j) in map(tuple, img.edges)]
    return PortGraph(img.degree, names.values(), edges,
                     {names[v]: img.label(v) for v in img.vertices})


def step_glued(f: LocalRule, x: CayleyGraph):
    """All rewritten images glued together, before renaming; and the new pointer."""
    parts = [_normalized_image(f, x, u) for u in sorted(x.vertices, key=name_key)]
    glued = glue_all(parts)
    pointer = next(v for v in glued.vertices if EPS_ELEM in v)
    return glued, pointer


def apply_rule(f: LocalRule, x: CayleyGraph) -> CayleyGraph:
    """One synchronous step: glue the images of every vertex's disk.

    The output is pointed at the image of the input pointer, which
    exists because every image claims its disk center.
    """
    if x.degree != f.params.port_count:
        raise RuleError(f"rule wants {f.params.port_count} ports, graph has {x.degree}")
    glued, pointer = step_glued(f, x)
    return canonicalize(glued, pointer)


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


def _consistency_cases(f: LocalRule, ambient: CayleyGraph, near_only: bool):
    """Yield (u, required_overlap) pairs to compare against the center image."""
    r = f.params.radius
    reach = 1 if near_only else 2 * r + 2
    dist = _ball(ambient, EPSILON, reach)
    for u in sorted(dist, key=name_key):
        if u == EPSILON:
            continue
        yield u, (dist[u] <= 1)


def _check_ambient(f: LocalRule, ambient: CayleyGraph, near_only: bool, witnesses):
    center = _normalized_image(f, ambient, EPSILON)
    ok = True
    for u, need_overlap in _consistency_cases(f, ambient, near_only):
        other = _normalized_image(f, ambient, u)
        verdict = consistent(center, other)
        if not verdict.ok:
            witnesses.append(f"images at {EPSILON!r} and {u!r} disagree: "
                             f"{verdict.witness} (ambient {ambient!r})")
            ok = False
        elif need_overlap and not verdict.nonempty:
            witnesses.append(f"images of adjacent vertices {EPSILON!r} and {u!r} "
                             f"do not even touch (ambient {ambient!r})")
            ok = False
    return ok


def validate_local_rule(f: LocalRule, *, exhaustive=None, samples=1000,
                        budget=10_000, seed=0) -> ValidationReport:
    """Check the consistency conditions that make a rule gluable.

    Near condition: images of vertices at distance <= 1 must agree and
    actually overlap, probed inside ambient disks of radius r + 1.  Far
    condition: images of vertices up to distance 2r + 2 must agree,
    probed inside ambient disks of radius 3r + 2 (beyond that range the
    images cannot share names).  Image size bounds are checked on the
    way.  With ``exhaustive=True`` every ambient disk is enumerated
    (within ``budget``, else BudgetExceeded); with ``exhaustive=False``
    ``samples`` random ambients are drawn; ``None`` tries the first and
    falls back to the second past the budget.  Not a proof in sampled
    mode, but wrong rules rarely survive it.
    """
    from .codec import BudgetExceeded, enumerate_disks

    p = f.params
    r = p.radius
    witnesses = []
    bound_ok = True
    checked = 0
    ambients = None
    if exhaustive or exhaustive is None:
        try:
            ambients = [(d.graph, near)
                        for near, radius in ((True, r + 1), (False, 3 * r + 2))
                        for d in enumerate_disks(p.port_count, p.labels, radius,
                                                 budget=budget)]
        except BudgetExceeded:
            if exhaustive:
                raise
    exhaustive = ambients is not None
    if not exhaustive:
        from .corpus import random_graph

        rng = random.Random(seed)
        ambients = []
        for _ in range(samples):
            near = rng.random() < 0.5
            radius = r + 1 if near else 3 * r + 2
            size = rng.randint(1, 2 * (radius + 1) * max(2, p.port_count))
            z = random_graph(rng, degree=p.port_count, size=size, alphabet=p.labels)
            ambients.append((disk(z, radius).graph, near))
    for ambient, near in ambients:
        checked += 1
        try:
            _check_ambient(f, ambient, near, witnesses)
        except (ImageTooLarge, MissingEpsilon, InvalidImageName) as err:
            bound_ok = False
            witnesses.append(f"bad image on ambient {ambient!r}: {err}")
        except PartialRuleHole as hole:
            witnesses.append(f"rule is not total: no image at {hole.vertex!r} "
                             f"in ambient {ambient!r}")
    return ValidationReport(ok=not witnesses, bound_ok=bound_ok,
                            coverage="exhaustive" if exhaustive else "sampled",
                            checked=checked, witnesses=tuple(witnesses))


def continuity_modulus(f: LocalRule, r: int) -> int:
    """Input agreement radius that pins down the output disk of radius r.

    One step reads radius ``f.radius`` around each vertex, and the glue
    can pull names from one vertex beyond the output disk, hence the
    extra 1.
    """
    return r + f.params.radius + 1


def check_continuity(f: LocalRule, r: int, pairs, step=apply_rule) -> list:
    """Return the pairs violating the modulus; empty means it held."""
    m = continuity_modulus(f, r)
    bad = []
    for x, y in pairs:
        if disk(x, m) != disk(y, m):
            continue
        if disk(step(f, x), r) != disk(step(f, y), r):
            bad.append((x, y))
    return bad
