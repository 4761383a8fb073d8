import pytest

from cgd.codec import BudgetExceeded
from cgd.corpus import cycle_graph, divergent_pair, grid_graph, random_graph, sample_graph
from cgd.graph import (
    EPSILON,
    DisconnectedInput,
    PortGraph,
    canonicalize,
    disk,
    name_key,
    shift,
)
from cgd.library import identity_rule, xor_label_rule
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
    continuity_modulus,
    iterate,
    orbit,
    step_glued,
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


def test_bad_images_are_rejected_at_table_construction():
    p = RuleParams(2, (0,), radius=0, bound=1)
    key = disk(canonicalize(PortGraph(2, ["a"], [], {"a": 0}), "a"), 0)
    eps = _ns((EPSILON, 0))
    other = _ns((EPSILON, 1))
    foreign = _ns((((9, 9),), 0))
    overflow = _ns((EPSILON, 5))

    def table_with(img):
        return LocalRule(p, table={key: img})

    with pytest.raises(MissingEpsilon):
        table_with(PortGraph(2, [other], [], {other: 0}))
    with pytest.raises(ImageTooLarge):
        table_with(PortGraph(2, [eps, other], [], {eps: 0, other: 0}))
    with pytest.raises(InvalidImageName):
        table_with(PortGraph(2, [foreign], [], {foreign: 0}))  # word not in the disk
    with pytest.raises(InvalidImageName):
        table_with(PortGraph(2, [overflow], [], {overflow: 0}))  # suffix past the cap
    with pytest.raises(InvalidImageName):
        table_with(PortGraph(2, ["raw"], [], {"raw": 0}))
    with pytest.raises(RuleError):
        table_with(PortGraph(2, [eps], [], {eps: 9}))  # label off-alphabet


def test_partial_hole_carries_the_vertex():
    p = RuleParams(2, (0, 1), radius=1, bound=3)
    hole_rule = LocalRule(p)
    x = cycle_graph(4)
    with pytest.raises(PartialRuleHole) as info:
        apply_rule(hole_rule, x)
    assert info.value.vertex in x.vertices
    assert info.value.disk.radius == 1


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
        glued, _ = step_glued(rule, x)
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


def _identity_with_blank_stubs():
    """Looks like the identity rule but forgets neighbour labels."""
    base = identity_rule(2, (0, 1))

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


def test_check_continuity_reports_offenders():
    # a fake step that reads far beyond its stated radius must get caught
    xor = xor_label_rule()

    def bad_step(f, x):
        y = apply_rule(f, x)
        flip = sum(x.labels.values()) % 2  # global, unbounded reach
        labels = {v: (lbl + flip) % 2 for v, lbl in y.labels.items()}
        return type(y)(y.degree, y.vertices, y.edges, labels)

    pairs = [divergent_pair(seed, k=continuity_modulus(xor, 0), degree=2, size=16)
             for seed in range(40)]
    offenders = check_continuity(xor, 0, pairs, step=bad_step)
    assert offenders  # some pair separates a local step from a global one
