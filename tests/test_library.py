import random

import pytest

from cgd.cli import main
from cgd.codec import RuleDescription, decode_rule
from cgd.corpus import cycle_graph, grid_graph, path_graph, random_graph, sample_graph
from cgd.graph import CayleyGraph, EPSILON, PortGraph, canonicalize, walk
from cgd.library import RULE_REGISTRY, identity_rule, inflating_grid_rule, xor_label_rule
from cgd.rules import RuleError, RuleParams, apply_rule, iterate


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
