import re
from dataclasses import replace

import oracle
import pytest

from cgd.codec import BudgetExceeded, rank_image
from cgd.corpus import (
    cycle_graph,
    divergent_pair,
    grid_graph,
    path_graph,
    random_graph,
    sample_graph,
)
from cgd.graph import (
    EPSILON,
    DisconnectedInput,
    GraphError,
    PortGraph,
    canonicalize,
    disk,
    disk_around,
    name_key,
    shift,
)
from cgd.library import identity_rule, inflating_grid_rule, xor_label_rule
from cgd.rules import (
    ImageTooLarge,
    InvalidImageName,
    LocalRule,
    MissingEpsilon,
    PartialRuleHole,
    RuleError,
    RuleParams,
    ValidationReport,
    WrongRadius,
    apply_rule,
    check_continuity,
    check_template,
    continuity_modulus,
    image_template,
    iterate,
    named_image,
    orbit,
    validate_local_rule,
)


def _ns(*elems):
    return frozenset(elems)


def test_rule_params_validation():
    p = RuleParams(2, (0, 1), radius=1, bound=3)
    assert p.suffix_count == 3
    with pytest.raises(RuleError):
        RuleParams(0, (0,), radius=1, bound=1)
    with pytest.raises(RuleError):
        RuleParams(2, (0, 0), radius=1, bound=1)
    with pytest.raises(RuleError):
        RuleParams(2, (), radius=1, bound=1)
    with pytest.raises(RuleError):
        RuleParams(2, (0,), radius=-1, bound=1)


def test_image_checks_radius_degree_and_alphabet():
    rule = identity_rule(2, (0, 1))
    with pytest.raises(WrongRadius):
        rule.image(disk(cycle_graph(5), 2))
    with pytest.raises(RuleError):
        rule.image(disk(sample_graph(), 1))  # 3 ports
    with pytest.raises(RuleError):
        rule.image(disk(cycle_graph(4, label=7), 1))  # label outside (0, 1)


# hand-made images no rule may hand out, all for one radius-0 disk, each
# with the error that says why
BAD_PARAMS = RuleParams(2, (0,), radius=0, bound=1)
BAD_KEY = disk(canonicalize(PortGraph(2, ["a"], [], {"a": 0}), "a"), 0)
_EPS, _OTHER = _ns((EPSILON, 0)), _ns((EPSILON, 1))
_FOREIGN, _OVERFLOW = _ns((((9, 9),), 0)), _ns((EPSILON, 5))
BAD_IMAGES = [
    (MissingEpsilon, PortGraph(2, [_OTHER], [], {_OTHER: 0})),
    (ImageTooLarge, PortGraph(2, [_EPS, _OTHER], [], {_EPS: 0, _OTHER: 0})),
    (InvalidImageName, PortGraph(2, [_FOREIGN], [], {_FOREIGN: 0})),  # word not in the disk
    (InvalidImageName, PortGraph(2, [_OVERFLOW], [], {_OVERFLOW: 0})),  # suffix past the cap
    (InvalidImageName, PortGraph(2, ["raw"], [], {"raw": 0})),
    (RuleError, PortGraph(2, [_EPS], [], {_EPS: 9})),  # label off-alphabet
    (RuleError, PortGraph(3, [_EPS], [], {_EPS: 0})),  # degree off the rule's
]


def test_bad_images_are_rejected_when_asked():
    for error, img in BAD_IMAGES:
        with pytest.raises(error) as direct:
            image_template(BAD_PARAMS, BAD_KEY, img)
        want = (type(direct.value), str(direct.value))
        rule = LocalRule(BAD_PARAMS, fn=lambda d, img=img: img)
        with pytest.raises(error) as info:
            rule.image(BAD_KEY)
        assert (type(info.value), str(info.value)) == want
        with pytest.raises(error) as info:  # a step's miss builds the disk for fn
            apply_rule(rule, BAD_KEY.graph)
        assert (type(info.value), str(info.value)) == want
        assert not rule._memo  # a refused image is not kept


# malformed templates over a 2-vertex disk, each with the name-set image that
# has the same fault; building that image may already raise
TEMPLATE_PARAMS = RuleParams(2, (0, 1), radius=1, bound=2, suffix_count=1)
TEMPLATE_KEY = disk(path_graph(2), 1)
_W = TEMPLATE_KEY.graph.words[1]
_A, _B = _ns((EPSILON, 0)), _ns((_W, 0))


def _named(*vertices, edges=(), labels=None):
    labels = labels or [0] * len(vertices)
    return lambda: PortGraph(2, vertices, edges, dict(zip(vertices, labels)))


MALFORMED_TEMPLATES = {
    "id past the disk": ((((0, 0), (2, 0)), (), (0, 0), ()),
                         _named(_A, _ns((((9, 9),), 0)))),
    "suffix past the count": ((((0, 0), (1, 2)), (), (0, 0), ()),
                              _named(_A, _ns((_W, 2)))),
    "pair in two vertices": ((((0, 0), (1, 0)), ((1, 0, 0),), (0, 0), ()),
                             _named(_A, _ns((_W, 0), (EPSILON, 0)))),
    "no (0, 0)": ((((0, 1),), (), (0,), ()), _named(_ns((EPSILON, 1)))),
    "label outside the alphabet": ((((0, 0), (1, 0)), (), (0, 7), ()),
                                   _named(_A, _B, labels=[0, 7])),
    "more vertices than the bound": ((((0, 0), (0, 1), (1, 0)), (), (0, 0, 0), ()),
                                     _named(_A, _ns((EPSILON, 1)), _B)),
    "slot out of range": ((((0, 0), (1, 0)), (), (0, 0), (0, 4)),
                          _named(_A, _B, edges=[((_A, 1), (_ns((_W, 1)), 1))])),
    "slot paired with itself": ((((0, 0), (1, 0)), (), (0, 0), (1, 1)),
                                _named(_A, _B, edges=[((_A, 2), (_A, 2))])),
    "slot used twice": ((((0, 0), (1, 0)), (), (0, 0), (0, 2, 0, 3)),
                        _named(_A, _B, edges=[((_A, 1), (_B, 1)), ((_A, 1), (_B, 2))])),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TEMPLATES))
def test_check_template_raises_as_the_matching_image(case):
    template, image = MALFORMED_TEMPLATES[case]
    p, key = TEMPLATE_PARAMS, TEMPLATE_KEY
    with pytest.raises(Exception) as named:  # noqa: B017 - the class is compared
        image_template(p, key, image())
    with pytest.raises(Exception) as info:  # noqa: B017
        check_template(p, len(key.graph.lab), template)
    assert type(info.value) is type(named.value)
    assert isinstance(info.value, (RuleError, GraphError))


@pytest.mark.parametrize("template, message", [
    ((((0, 0),), (), (0, 0), ()), "template has 2 labels for 1 vertices"),
    ((((0, 0),), ((4, 1, 0),), (0,), ()), "template pair (1, 0) joins no vertex (4)"),
])
def test_check_template_refuses_a_template_no_image_has(template, message):
    with pytest.raises(RuleError) as info:
        check_template(TEMPLATE_PARAMS, 2, template)
    assert (type(info.value), str(info.value)) == (RuleError, message)


@pytest.mark.parametrize("given", [{}, {"fn": lambda d: None, "ids": lambda nbr, lab: None}],
                         ids=["neither", "both"])
def test_a_rule_takes_one_of_fn_and_ids(given):
    with pytest.raises(RuleError) as info:
        LocalRule(TEMPLATE_PARAMS, **given)
    assert (type(info.value), str(info.value)) == (
        RuleError, "a rule is given by an ids function or a name-set fn, not both or neither")


def test_check_template_takes_what_image_template_gives():
    p, key = TEMPLATE_PARAMS, TEMPLATE_KEY
    good = _named(_A, _ns((_W, 0), (_W, 1)), edges=[((_A, 2), (_A, 1))], labels=[1, 0])()
    t = image_template(p, key, good)
    assert t == (((0, 0), (1, 0)), ((1, 1, 1),), (1, 0), (0, 1))
    check_template(p, 2, t)
    assert named_image(p, key, t) == good
    for shuffled in [(t[0][::-1], ((0, 1, 1),), t[2][::-1], (2, 3)),  # vertices swapped
                     (t[0], t[1], t[2], (1, 0))]:                      # an edge backwards
        with pytest.raises(RuleError, match="order"):
            check_template(p, 2, shuffled)


def _identity_with_overlapping_stub():
    """The identity rule, but the first stub also claims the disk center."""
    base = identity_rule(2, (0, 1))

    def fn(d):
        img = base.fn(d)
        stub = min((v for v in img.vertices if (EPSILON, 0) not in v), key=name_key)
        names = {v: v | {(EPSILON, 0)} if v == stub else v for v in img.vertices}
        edges = [((names[u], i), (names[v], j)) for (u, i), (v, j) in img.edges]
        return PortGraph(2, names.values(), edges,
                         {names[v]: img.label(v) for v in img.vertices})

    return LocalRule(base.params, fn=fn)


def test_image_name_sets_must_be_disjoint():
    rule = _identity_with_overlapping_stub()
    d = disk(cycle_graph(4), 1)
    with pytest.raises(InvalidImageName, match="two image vertices"):
        rule.image(d)
    with pytest.raises(InvalidImageName, match="two image vertices"):
        rank_image(rule.params, d, rule.fn(d))
    report = validate_local_rule(rule, samples=5, seed=0)
    assert not report.ok and report.bound_ok
    assert all("two image vertices" in w for w in report.witnesses)


def _assert_checked_and_templated_as_the_oracle(p, d, img):
    try:
        oracle.check_image(p, d, img)
        want = oracle._template(img, d)
    except RuleError as err:
        with pytest.raises(RuleError) as info:
            image_template(p, d, img)
        assert (type(info.value), str(info.value)) == (type(err), str(err))
    else:
        assert image_template(p, d, img) == want


def _folded(img):
    """The image with its vertices folded in pairs, first with last, and
    strung on a path: a good image whose vertices claim several elements."""
    vs = sorted(img.vertices, key=sorted)
    n = len(vs)
    folded = [vs[i] | vs[n - 1 - i] for i in range((n + 1) // 2)]
    path = zip(folded, folded[1:]) if img.degree > 1 else ()
    return PortGraph(img.degree, folded, [((u, 1), (v, 2)) for u, v in path],
                     {v: img.label(vs[i]) for i, v in enumerate(folded)})


def test_image_template_agrees_with_the_frozen_check_and_template():
    rules = [identity_rule(1, (0, 1)), identity_rule(2, (0, 1)), identity_rule(3, (0, 1)),
             xor_label_rule(2), xor_label_rule(3), inflating_grid_rule(),
             _identity_with_overlapping_stub()]
    for seed, f in enumerate(rules):
        p = f.params
        for x in [random_graph(seed * 10 + i, degree=p.port_count, size=9,
                               alphabet=p.labels) for i in range(3)]:
            disks = [disk_around(x, w, p.radius) for w in x.words]
            for d, other in zip(disks, disks[1:] + disks[:1]):
                img = f.fn(d)
                _assert_checked_and_templated_as_the_oracle(p, d, img)
                _assert_checked_and_templated_as_the_oracle(p, d, _folded(img))
                _assert_checked_and_templated_as_the_oracle(p, other, img)  # names off the disk
                small = replace(p, bound=max(1, len(img.vertices) - 1))
                _assert_checked_and_templated_as_the_oracle(small, d, img)
    for _, img in BAD_IMAGES:
        _assert_checked_and_templated_as_the_oracle(BAD_PARAMS, BAD_KEY, img)


def test_partial_hole_carries_the_vertex():
    p = RuleParams(2, (0, 1), radius=1, bound=3)
    hole_rule = LocalRule(p, fn=lambda d: None)
    x = cycle_graph(4)
    with pytest.raises(PartialRuleHole) as info:
        apply_rule(hole_rule, x)
    assert info.value.vertex in x.vertices
    assert info.value.disk.radius == 1


def test_a_name_set_hole_carries_the_disk_asked(monkeypatch):
    p = RuleParams(2, (0, 1), radius=1, bound=3)
    base = identity_rule(2, (0, 1))
    partial = LocalRule(p, fn=lambda d: None if d.graph.label(EPSILON) else base.fn(d))
    asked = disk(cycle_graph(4, label=1), 1)
    with pytest.raises(PartialRuleHole) as info:
        partial.image(asked)
    assert info.value.disk == asked
    x = cycle_graph(5, label=[0, 1, 0, 0, 0])
    with pytest.raises(PartialRuleHole) as info:
        apply_rule(partial, x)
    assert info.value.disk == disk_around(x, info.value.vertex, 1)
    holes = []
    image = LocalRule.image

    def recorded(rule, d):
        try:
            return image(rule, d)
        except PartialRuleHole as hole:
            holes.append((hole, d))
            raise

    monkeypatch.setattr(LocalRule, "image", recorded)
    report = validate_local_rule(partial, samples=20, seed=0)
    assert len(holes) == len(report.witnesses) > 0
    assert all(w.startswith("rule is not total") for w in report.witnesses)
    assert all(hole.disk == d for hole, d in holes)


def test_a_fn_replaced_after_construction_is_the_one_asked():
    base = identity_rule(2, (0, 1))
    rule = LocalRule(base.params, fn=lambda d: None)
    rule.fn = base.fn
    x = cycle_graph(6, label=[1, 0, 0, 1, 1, 0])
    assert apply_rule(rule, x) == x
    assert rule.image(disk(x, 1)) == base.image(disk(x, 1))


def test_each_image_is_checked_once(monkeypatch):
    checked = []
    monkeypatch.setattr("cgd.rules.check_template",
                        lambda *args: checked.append(args) or check_template(*args))
    x = cycle_graph(6, label=[1, 0, 0, 1, 1, 0])
    disks = {disk_around(x, w, 1) for w in x.words}
    stubless = _identity_without_stubs()
    for d in disks:
        stubless.image(d)
    assert checked == []  # image_template alone checks a name-set image
    apply_rule(identity_rule(2, (0, 1)), x)
    assert len(checked) == len(disks)


def test_apply_rule_rejects_port_mismatch():
    with pytest.raises(RuleError):
        apply_rule(xor_label_rule(), sample_graph())


def test_fn_images_are_memoized():
    calls = []
    base = identity_rule(2, (0, 1))

    def counting(d):
        calls.append(d)
        return base.fn(d)

    rule = LocalRule(base.params, fn=counting)
    x = cycle_graph(6)
    apply_rule(rule, x)
    first = len(calls)
    apply_rule(rule, x)
    assert len(calls) == first  # every disk came from the memo the second time


def test_application_commutes_with_repointing():
    """Stepping then moving the pointer equals moving then stepping."""
    cases = [
        (identity_rule(3, (0, 1)), sample_graph()),
        (xor_label_rule(), cycle_graph(6, label=[1, 0, 1, 1, 0, 0])),
        (identity_rule(2, (0, 1)), random_graph(5, degree=2, size=9)),
    ]
    for rule, x in cases:
        glued, _ = oracle._step_glued(rule, x)
        for v in sorted(x.vertices, key=name_key):
            target = next(c for c in glued.vertices if (v, 0) in c)
            assert apply_rule(rule, shift(x, v)) == canonicalize(glued, target)


def test_iterate_and_orbit():
    xor = xor_label_rule()
    x = cycle_graph(4, label=[1, 0, 0, 0])
    steps = orbit(xor, x, 3)
    assert steps[0] == x
    assert len(steps) == 4
    assert iterate(xor, x, 3) == steps[-1]
    assert iterate(xor, x, 0) == x


# --- validation --------------------------------------------------------------

def test_validation_passes_good_rules():
    report = validate_local_rule(identity_rule(1, (0,)), exhaustive=True)
    assert report.ok and report.coverage == "exhaustive" and report.bound_ok
    assert bool(report)
    report = validate_local_rule(identity_rule(2, (0, 1)), samples=40, seed=3)
    assert report.ok and report.coverage == "sampled" and report.checked == 40


def test_validation_modes():
    with pytest.raises(BudgetExceeded):
        validate_local_rule(identity_rule(2, (0, 1)), exhaustive=True, budget=10)
    small = identity_rule(1, (0,))
    auto = validate_local_rule(small, exhaustive=None)
    full = validate_local_rule(small, exhaustive=True)
    assert auto.coverage == full.coverage == "exhaustive"
    assert auto.checked == full.checked
    fallback = validate_local_rule(identity_rule(2, (0, 1)), exhaustive=None,
                                   budget=10, samples=5)
    assert fallback.coverage == "sampled" and fallback.checked == 5


@pytest.mark.parametrize("samples", [0, -3])
def test_sampling_nothing_is_refused(samples):
    with pytest.raises(RuleError):
        validate_local_rule(identity_rule(2, (0, 1)), budget=10, samples=samples)
    # an enumerated check draws no samples, so it does not need any
    assert validate_local_rule(identity_rule(1, (0,)), samples=samples).checked == 4


def _identity_with_blank_stubs(ports=2):
    """Looks like the identity rule but forgets neighbour labels."""
    base = identity_rule(ports, (0, 1))

    def fn(d):
        img = base.fn(d)
        labels = {v: (img.label(v) if (EPSILON, 0) in v else 0) for v in img.vertices}
        return PortGraph(img.degree, img.vertices, img.edges, labels)

    return LocalRule(base.params, fn=fn)


def _identity_without_stubs():
    base = identity_rule(2, (0, 1))

    def fn(d):
        eps = _ns((EPSILON, 0))
        return PortGraph(2, [eps], [], {eps: d.graph.label(EPSILON)})

    return LocalRule(base.params, fn=fn)


def test_validation_catches_label_disagreement():
    report = validate_local_rule(_identity_with_blank_stubs(), samples=60, seed=0)
    assert not report.ok
    assert any("disagree" in w for w in report.witnesses)


def test_validation_catches_images_that_never_touch():
    report = validate_local_rule(_identity_without_stubs(), samples=40, seed=0)
    assert not report.ok
    assert any("touch" in w for w in report.witnesses)


def _partial_identity():
    base = identity_rule(2, (0, 1))
    return LocalRule(base.params,  # no image where the centre is labelled 1
                     fn=lambda d: None if d.graph.label(EPSILON) else base.fn(d))


def test_validation_reports_a_partial_rule():
    report = validate_local_rule(_partial_identity(), samples=20, seed=0)
    assert not report.ok and report.witnesses
    for w in report.witnesses:  # each hole names its vertex of the ambient
        assert re.match(r"rule is not total: no image at \(.*\) in ambient <", w), w


def _identity_labelled_7():
    """The identity rule with every image vertex labelled 7, outside its alphabet."""
    base = identity_rule(2, (0, 1))

    def ids(nbr, lab):
        heads, more, labels, ends = base.ids(nbr, lab)
        return heads, more, (7,) * len(labels), ends

    return LocalRule(base.params, ids=ids)


def test_validation_reports_every_image_the_check_refuses():
    # a plain RuleError, here a label outside the alphabet, is a bad image too,
    # but only an image past the bound clears bound_ok
    base = identity_rule(2, (0, 1))

    def fn(d):
        img = base.fn(d)
        return PortGraph(img.degree, img.vertices, img.edges, dict.fromkeys(img.vertices, 7))

    for rule in (_identity_labelled_7(), LocalRule(base.params, fn=fn)):
        report = validate_local_rule(rule, samples=20, seed=0)
        assert not report.ok and report.bound_ok and report.witnesses
        for w in report.witnesses:
            assert re.fullmatch(r"bad image on ambient <.*>: "
                                r"image label 7 outside the rule alphabet", w), w
    tight = LocalRule(replace(base.params, bound=1), ids=base.ids)
    report = validate_local_rule(tight, samples=20, seed=0)
    assert not report.ok and not report.bound_ok and report.witnesses
    for w in report.witnesses:
        assert re.fullmatch(r"bad image on ambient <.*>: \d+ vertices exceed the bound 1", w), w
    # a slot fault is the template's own GraphError, as PortGraph raises it for fn
    slots = LocalRule(base.params, ids=lambda nbr, lab: (((0, 0),), (), lab[:1], (0, 99)))
    with pytest.raises(GraphError):
        validate_local_rule(slots, samples=5, seed=0)


def _assert_reports_agree(live, frozen):
    if any(w.startswith("bad image") for w in frozen.witnesses):
        # the frozen validator clears bound_ok on any refused image
        live = replace(live, bound_ok=frozen.bound_ok)
    assert live == frozen


@pytest.mark.parametrize("rule", [
    identity_rule(1, (0,)),
    identity_rule(1, (0, 1)),
    _identity_with_blank_stubs(ports=1),
    xor_label_rule(1),
    # a 1-port disk has at most two vertices, so only here is the near slice
    # short of the whole far catalog
    LocalRule(RuleParams(2, (0,), radius=0, bound=1),  # images that never touch
              ids=lambda nbr, lab: (((0, 0),), (), lab[:1], ())),
], ids=["identity-1-{0}", "identity-1-{0,1}", "forgetful-1", "xor-1", "stubless-r0"])
def test_exhaustive_validation_agrees_with_the_frozen_validator(rule):
    live = validate_local_rule(rule, exhaustive=True)
    assert live.coverage == "exhaustive"
    _assert_reports_agree(live, oracle.validate_local_rule(rule, exhaustive=True))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("make", [
    lambda: identity_rule(2, (0, 1)),
    lambda: xor_label_rule(2),
    inflating_grid_rule,
    _identity_with_blank_stubs,
    _partial_identity,
    _identity_labelled_7,
], ids=["identity", "xor", "inflating-grid", "forgetful", "partial", "label-7"])
def test_sampled_validation_agrees_with_the_frozen_validator(make, seed):
    live = validate_local_rule(make(), samples=60, seed=seed)
    assert live.coverage == "sampled"
    _assert_reports_agree(live, oracle.validate_local_rule(make(), samples=60, seed=seed))


@pytest.mark.parametrize("budget", [10, 10_000])
def test_a_far_catalog_past_the_budget_trips_as_in_the_frozen_validator(monkeypatch, budget):
    # identity(2, {0, 1}) has 1,564 near ambients and over 10,000 far ones, so
    # the frozen validator trips on its near walk at 10 and its far walk at 10,000
    raised = []
    for validate in (validate_local_rule, oracle.validate_local_rule):
        monkeypatch.setattr("cgd.codec._CATALOGS", {})  # walk afresh
        with pytest.raises(BudgetExceeded) as info:
            validate(identity_rule(2, (0, 1)), exhaustive=True, budget=budget)
        raised.append(str(info.value))
    assert raised[0] == raised[1]


def test_validation_walks_only_the_far_catalog(monkeypatch):
    catalogs = {}
    monkeypatch.setattr("cgd.codec._CATALOGS", catalogs)
    assert validate_local_rule(identity_rule(2, (0, 1)), samples=5).coverage == "sampled"
    assert list(catalogs) == [(2, (0, 1), 5)]


def test_sampled_ambients_are_cut_by_one_search(monkeypatch):
    canonicalized = []
    monkeypatch.setattr("cgd.corpus.canonicalize", lambda *args: canonicalized.append(args))
    assert validate_local_rule(identity_rule(2, (0, 1)), budget=10, samples=20).ok
    assert canonicalized == []


def test_stubless_rule_actually_shatters():
    # the failure mode the nonempty-overlap condition predicts
    with pytest.raises(DisconnectedInput):
        apply_rule(_identity_without_stubs(), cycle_graph(4))


# --- continuity --------------------------------------------------------------

@pytest.mark.parametrize("r", [0, 1, 2])
def test_continuity_modulus_holds(r):
    cases = [
        (identity_rule(3, (0, 1)), 3),
        (xor_label_rule(), 2),
    ]
    for rule, degree in cases:
        m = continuity_modulus(rule, r)
        assert m == r + rule.params.radius + 1
        pairs = [divergent_pair(seed, k=m, degree=degree, size=16)
                 for seed in range(12)]
        assert check_continuity(rule, r, pairs) == []


def test_check_continuity_reports_offenders(monkeypatch):
    # a fake step that reads far beyond its stated radius must get caught
    xor = xor_label_rule()

    def bad_step(f, x):
        y = apply_rule(f, x)
        flip = sum(x.labels.values()) % 2  # global, unbounded reach
        labels = {v: (lbl + flip) % 2 for v, lbl in y.labels.items()}
        return type(y)(y.degree, y.vertices, y.edges, labels)

    pairs = [divergent_pair(seed, k=continuity_modulus(xor, 0), degree=2, size=16)
             for seed in range(40)]
    monkeypatch.setattr("cgd.rules.apply_rule", bad_step)
    offenders = check_continuity(xor, 0, pairs)
    assert offenders  # some pair separates a local step from a global one
