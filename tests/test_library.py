import random

import oracle
import pytest

from cgd.cli import main
from cgd.codec import RuleDescription, decode_rule
from cgd.corpus import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_graph,
    random_port_graph,
    sample_graph,
)
from cgd.graph import CayleyGraph, EPSILON, PortGraph, canonicalize, disk_around, walk
from cgd.library import RULE_REGISTRY, identity_rule, inflating_grid_rule, xor_label_rule
from cgd.rules import RuleError, RuleParams, apply_rule, check_template, iterate, named_image


def test_identity_is_a_fixed_point_map():
    ident3 = identity_rule(3, (0, 1))
    assert apply_rule(ident3, sample_graph()) == sample_graph()
    ident2 = identity_rule(2, (0, 1, 2))
    for seed in range(15):
        x = random_graph(seed, degree=2, size=12, alphabet=(0, 1, 2))
        assert apply_rule(ident2, x) == x
    ident4 = identity_rule(4, (0,))
    g = grid_graph(3, 2)
    assert apply_rule(ident4, g) == g


def xor_reference(x):
    """The same dynamics computed globally instead of disk by disk."""
    pm = x.port_map()
    new = {}
    for v in x.vertices:
        around = {pm[(v, a)][0] for a in range(1, x.degree + 1) if (v, a) in pm}
        around.add(v)
        new[v] = sum(x.label(u) for u in around) % 2
    return CayleyGraph(x.degree, x.vertices, x.edges, new)


def test_xor_matches_the_global_reference():
    xor2 = xor_label_rule()
    for n, pattern in [(4, [1, 0, 0, 0]), (6, [1, 1, 0, 1, 0, 0]), (1, [1]), (2, [1, 0])]:
        x = cycle_graph(n, label=pattern)
        assert apply_rule(xor2, x) == xor_reference(x)
    for seed in range(12):
        x = random_graph(seed, degree=2, size=11)
        assert apply_rule(xor2, x) == xor_reference(x)
    xor3 = xor_label_rule(3)
    for seed in range(8):
        x = random_graph(100 + seed, degree=3, size=10)
        assert apply_rule(xor3, x) == xor_reference(x)


def test_xor_on_paths_over_time():
    xor = xor_label_rule()
    x = path_graph(7, label=[0, 0, 0, 1, 0, 0, 0])
    for _ in range(4):
        y = apply_rule(xor, x)
        assert y == xor_reference(x)
        assert y.vertices == x.vertices and y.edges == x.edges
        x = y


def _grid_pointed_at(w, h, cell):
    vertices = [(i, j) for i in range(w) for j in range(h)]
    edges = []
    for i in range(w):
        for j in range(h):
            if j + 1 < h:
                edges.append((((i, j), 1), ((i, j + 1), 2)))
            if i + 1 < w:
                edges.append((((i, j), 3), ((i + 1, j), 4)))
    return canonicalize(PortGraph(4, vertices, edges, {v: 0 for v in vertices}), cell)


@pytest.mark.parametrize("w,h", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
def test_inflation_doubles_grids(w, h):
    infl = inflating_grid_rule()
    got = apply_rule(infl, grid_graph(w, h))
    # the old pointer's nw quadrant is cell (0, 1) of the doubled grid
    assert got == _grid_pointed_at(2 * w, 2 * h, (0, 1))


def test_inflation_iterates_to_the_predicted_corner():
    infl = inflating_grid_rule()
    x = grid_graph(2, 2)
    for n in (1, 2, 3):
        x_n = iterate(infl, grid_graph(2, 2), n)
        want = _grid_pointed_at(2 ** n * 2, 2 ** n * 2, (0, 2 ** n - 1))
        assert x_n == want
    assert len(iterate(infl, x, 2).vertices) == 4 * 4 ** 2


def test_inflation_quadruples_any_four_port_world():
    infl = inflating_grid_rule()
    lone = canonicalize(PortGraph(4, ["a"], [], {"a": 0}), "a")
    block = apply_rule(infl, lone)
    assert len(block.vertices) == 4
    assert len(block.edges) == 4  # a plain 2 x 2 block is a 4-cycle
    looped = canonicalize(PortGraph(4, ["a"], [(("a", 1), ("a", 2))], {"a": 0}), "a")
    assert len(apply_rule(infl, looped).vertices) == 4
    for seed in range(10):
        x = random_graph(seed, degree=4, size=8, alphabet=(0,))
        y = apply_rule(infl, x)
        assert len(y.vertices) == 4 * len(x.vertices)
        assert sum(1 for _ in y.edges) == 4 * len(x.vertices) + 2 * len(x.edges)


def test_inflation_keeps_the_nw_quadrant_on_the_pointer():
    infl = inflating_grid_rule()
    x = random_graph(3, degree=4, size=6, alphabet=(0,))
    y = apply_rule(infl, x)
    # the pointer's block: pointer plus its south and east partners
    assert walk(y, ()) == EPSILON
    s = walk(y, ((2, 1),))
    e = walk(y, ((3, 4),))
    se = walk(y, ((2, 1), (3, 4)))
    assert walk(y, ((3, 4), (2, 1))) == se
    assert len({EPSILON, s, e, se}) == 4


def test_registry_rebuilds_each_rule():
    for key, rule in [("identity", identity_rule(2, (0, 1))),
                      ("xor", xor_label_rule()),
                      ("inflating-grid", inflating_grid_rule())]:
        again = decode_rule(RuleDescription(rule.params, registry_key=key))
        assert again.params == rule.params
        assert again.registry_key == key
    with pytest.raises(RuleError):
        decode_rule(RuleDescription(identity_rule(2, (0, 1)).params, registry_key="xor"))


def test_registry_is_the_one_list_of_rule_names(monkeypatch, capsys):
    built = []

    def build(port_count, labels):
        built.append((port_count, labels))
        return identity_rule(port_count, labels)

    monkeypatch.setitem(RULE_REGISTRY, "copy", build)
    assert main(["run", "--rule", "copy", "--graph", "cycle-6", "--steps", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "step 1: |V|=6 |E|=6"
    params = RuleParams(3, (0, 1), radius=1, bound=4)
    assert decode_rule(RuleDescription(params, registry_key="copy")).params == params
    assert built == [(2, (0,)), (3, (0, 1))]
    assert main(["run", "--rule", "no-such-rule", "--graph", "cycle-6"]) == 2
    assert "identity, xor, inflating-grid, copy" in capsys.readouterr().err


def _disks(f, seed, count=40):
    """Every disk of f's radius on seeded random graphs of f's size; the
    extra edges make self-loops and parallel edges."""
    p = f.params
    rng = random.Random(seed)
    for _ in range(count):
        g, root = random_port_graph(rng, degree=p.port_count, size=rng.randint(1, 10),
                                    alphabet=p.labels, extra=rng.choice((0.0, 0.5, 1.5)))
        x = canonicalize(g, root)
        yield from (disk_around(x, w, p.radius) for w in x.words)


def test_block_images_agree_with_the_frozen_library():
    cases = [(identity_rule(n, (0, 1)), oracle.identity_fn) for n in (1, 2, 3, 4)]
    cases += [(xor_label_rule(n), oracle.xor_label_fn) for n in (1, 2, 3, 4)]
    cases += [(inflating_grid_rule(4, (0,)), oracle.inflating_grid_fn)]
    disks = loops = parallel = 0
    for seed, (f, frozen) in enumerate(cases):
        for d in _disks(f, seed):
            assert f.fn(d) == frozen(d), (f.registry_key, d.graph.nbr, d.graph.lab)
            ends = [v for (u, _), (v, _) in d.graph.port_map().items() if u == EPSILON]
            disks += 1
            loops += EPSILON in ends
            parallel += len(set(ends)) < len(ends)
    assert disks >= 1500 and loops >= 50 and parallel >= 200


def _ends_as_pairs(t):
    """A template with its edges in one order: the live template sorts them,
    the frozen one keeps its image's port-map order."""
    heads, more, labels, ends = t
    return heads, more, labels, sorted(zip(ends[::2], ends[1::2]))


def test_ids_templates_agree_with_the_frozen_library_and_template():
    cases = [(identity_rule(n, (0, 1)), oracle.identity_fn) for n in (1, 2, 3, 4)]
    cases += [(xor_label_rule(n), oracle.xor_label_fn) for n in (1, 2, 3, 4)]
    cases += [(inflating_grid_rule(4, (0,)), oracle.inflating_grid_fn)]
    disks = 0
    for seed, (f, frozen) in enumerate(cases):
        p = f.params
        for d in _disks(f, seed):
            got = f.ids(d.graph.nbr, d.graph.lab)
            check_template(p, len(d.graph.lab), got)
            want = oracle.image_template(p, d, frozen(d))
            assert _ends_as_pairs(got) == _ends_as_pairs(want), (f.registry_key, d.graph.nbr)
            assert f.fn(d) == named_image(p, d, got) == frozen(d)
            disks += 1
    assert disks >= 1500  # the disks of test_block_images_agree_with_the_frozen_library


def test_builders_refuse_the_sizes_they_cannot_take():
    with pytest.raises(RuleError) as info:
        xor_label_rule(2, (0, 1, 2))
    assert str(info.value) == "label 2 is outside the alphabet (0, 1) of rule 'xor'"
    with pytest.raises(RuleError) as info:
        inflating_grid_rule(2)
    assert str(info.value) == "rule 'inflating-grid' works on 4-port graphs, not 2"
    with pytest.raises(RuleError) as info:
        inflating_grid_rule(4, (0, 1))
    assert str(info.value) == "label 1 is outside the alphabet (0,) of rule 'inflating-grid'"
    # a smaller alphabet fits, and the rule keeps its own
    assert xor_label_rule(3, (0,)).params.labels == (0, 1)
    assert inflating_grid_rule(4, ()).params == inflating_grid_rule().params


def test_registry_holds_the_builders_themselves():
    assert RULE_REGISTRY == {"identity": identity_rule, "xor": xor_label_rule,
                             "inflating-grid": inflating_grid_rule}
    assert RULE_REGISTRY["xor"] is xor_label_rule


@pytest.mark.parametrize("key,params,text", [
    ("inflating-grid", RuleParams(2, (0,), radius=1, bound=12, suffix_count=3),
     "rule 'inflating-grid' works on 4-port graphs, not 2"),
    ("xor", RuleParams(2, (0, 1, 2), radius=2, bound=3),
     "label 2 is outside the alphabet (0, 1) of rule 'xor'"),
], ids=["inflating-grid", "xor"])
def test_decoding_a_key_at_a_size_its_builder_refuses(key, params, text):
    with pytest.raises(RuleError) as info:
        decode_rule(RuleDescription(params, registry_key=key))
    assert str(info.value) == text
