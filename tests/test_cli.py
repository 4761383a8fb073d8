import argparse

from cgd.cli import build_parser, main
from cgd.codec import RuleDescription, encode_rule, write_rule
from cgd.graph import PortGraph
from cgd.library import identity_rule
from cgd.rules import LocalRule

FIG4 = "$1;(1,1)$0;(2,3)$0(2,3)||;(1,1)$1(2,3)||;"


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_encode_fig4_prints_the_golden_string(capsys):
    code, out, _ = run_cli("encode", "fig4", capsys=capsys)
    assert code == 0
    assert out.splitlines() == ["ports=3 labels=0,1", FIG4]


def test_encode_single_vertex(capsys):
    code, out, _ = run_cli("encode", "single-vertex-1", capsys=capsys)
    assert code == 0
    assert out.splitlines()[1] == "$1;"


def test_encode_flags_malformed_files_with_a_position(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("ports=2 labels=0,1\n$0;(9(;\n")
    code, _, err = run_cli("encode", str(bad), capsys=capsys)
    assert code != 0
    assert "offset" in err


def test_unknown_fixture_is_an_error(capsys):
    code, _, err = run_cli("encode", "no-such-thing", capsys=capsys)
    assert code != 0 and "fixture" in err


def test_decode_round_trips_a_code_file(tmp_path, capsys):
    f = tmp_path / "g.graph"
    f.write_text(f"ports=3 labels=0,1\n{FIG4}\n")
    code, out, _ = run_cli("decode", str(f), "--format", "code", capsys=capsys)
    assert code == 0
    assert out.splitlines() == [FIG4, "|V|=4 |E|=5"]


def test_run_identity_emits_identical_codes(capsys):
    code, out, _ = run_cli("run", "--rule", "identity", "--graph", "fig4",
                           "--steps", "3", "--format", "code", capsys=capsys)
    assert code == 0
    assert [ln for ln in out.splitlines() if ln.startswith("$")] == [FIG4] * 4


def test_run_inflating_grid_growth_summary(capsys):
    code, out, _ = run_cli("run", "--rule", "inflating-grid", "--graph",
                           "lone-cell", "--steps", "2", capsys=capsys)
    assert code == 0
    assert out.splitlines() == [
        "step 0: |V|=1 |E|=0",
        "step 1: |V|=4 |E|=4",
        "step 2: |V|=16 |E|=24",
    ]


GOLDEN_DOT = """\
graph g {
  node [shape=circle];
  n0 [label="1" shape=doublecircle];
}
step 0: |V|=1 |E|=0
"""


def test_run_dot_format_matches_the_golden_file(capsys):
    code, out, _ = run_cli("run", "--rule", "identity", "--graph",
                           "single-vertex-1", "--steps", "0", "--format", "dot",
                           capsys=capsys)
    assert code == 0
    assert out == GOLDEN_DOT


def test_dot_output_survives_a_rough_grammar_check(capsys):
    _, out, _ = run_cli("decode", "fig4", "--format", "dot", capsys=capsys)
    body = out[out.index("{") + 1:out.rindex("}")]
    assert out.startswith("graph ")
    assert all(ln.rstrip().endswith(";") for ln in body.splitlines() if ln.strip())
    assert body.count("--") == 5  # one per edge


def test_simulate_passes_on_the_inflating_grid(capsys):
    code, out, _ = run_cli("simulate", "--rule", "inflating-grid", "--graph",
                           "grid-2x2", "--steps", "3", capsys=capsys)
    assert code == 0
    assert "Pass (delta=1, 3 steps)" in out


def test_simulate_via_machine_reports_its_steps(capsys):
    code, out, _ = run_cli("simulate", "--rule", "xor", "--graph", "fig4",
                           "--steps", "3", "--via-machine", capsys=capsys)
    assert code == 0
    assert "machine built the stamped world in" in out
    assert "Pass (delta=1" in out


def test_simulate_fails_on_a_corrupted_description(tmp_path, capsys):
    base = identity_rule(2, (0, 1))

    def blank_image(d):
        img = base.image(d)
        return PortGraph(img.degree, img.vertices, img.edges,
                         {v: 0 for v in img.vertices})

    wrong = tmp_path / "wrong.rule"
    wrong.write_text(write_rule(encode_rule(LocalRule(base.params, fn=blank_image))))
    code, out, _ = run_cli("simulate", "--rule", "identity", "--graph",
                           "single-vertex-1", "--steps", "2",
                           "--description", str(wrong), capsys=capsys)
    assert code == 1
    assert "Fail at step 1" in out and "distance 1" in out


def test_rule_files_feed_simulate(tmp_path, capsys):
    f = tmp_path / "id.rule"
    f.write_text(write_rule(encode_rule(identity_rule(2, (0, 1)))))
    code, out, _ = run_cli("simulate", "--rule", str(f), "--graph", "cycle-6",
                           "--steps", "2", capsys=capsys)
    assert code == 0 and "Pass" in out


def test_machine_run_builds_and_reports(capsys):
    code, out, _ = run_cli("machine-run", "--rule", "identity", "--graph",
                           "cycle-6", capsys=capsys)
    assert code == 0
    assert "machine halted after" in out
    assert "|V|=6 |E|=6" in out


def test_machine_run_code_format_drops_the_stamps(capsys):
    code, out, _ = run_cli("machine-run", "--rule", "identity", "--graph",
                           "path-5", "--format", "code", capsys=capsys)
    assert code == 0
    assert out.splitlines()[1] == "$0;(1,2)$0;(1,2)$0;(1,2)$0;(1,2)$0;"


def test_machine_budget_flag_is_honored(capsys):
    code, _, err = run_cli("machine-run", "--rule", "identity", "--graph",
                           "cycle-6", "--budget-machine", "5", capsys=capsys)
    assert code != 0 and "machine" in err


def test_enumerate_disks_lists_the_catalog(capsys):
    code, out, _ = run_cli("enumerate-disks", "--ports", "1", "--labels", "0",
                           "--radius", "1", capsys=capsys)
    assert code == 0
    assert out.splitlines() == ["$0;", "$0;(1,1)$0;",
                                "2 disks of radius 1 (1 ports, 1 labels)"]


def test_validate_rule_exhaustive_identity(capsys):
    code, out, _ = run_cli("validate-rule", "--rule", "identity", "--ports", "1",
                           "--labels", "0", "--exhaustive", capsys=capsys)
    assert code == 0
    assert "passes the consistency conditions" in out


def test_degree_mismatch_is_reported(capsys):
    code, _, err = run_cli("run", "--rule", "inflating-grid", "--graph", "fig4",
                           "--steps", "1", capsys=capsys)
    assert code != 0 and "port" in err


def test_a_hole_prints_the_offending_disk(tmp_path, capsys):
    full = encode_rule(identity_rule(2, (0,)))
    holes = RuleDescription(full.params, entries=[None] * len(full.entries),
                            catalog_hash=full.catalog_hash)
    f = tmp_path / "holes.rule"
    f.write_text(write_rule(holes))
    code, _, err = run_cli("run", "--rule", str(f), "--graph", "cycle-6", capsys=capsys)
    assert code == 2
    assert "no image for the disk at ()" in err
    assert "offending disk: $" in err


# every flag each subcommand's cmd_* function reads, and no other
FLAGS = {
    "encode": set(),
    "decode": {"--format"},
    "run": {"--rule", "--graph", "--steps", "--format", "--budget-enum"},
    "validate-rule": {"--rule", "--ports", "--labels", "--samples", "--exhaustive",
                      "--seed", "--budget-enum"},
    "simulate": {"--rule", "--graph", "--steps", "--description", "--via-machine",
                 "--budget-machine", "--budget-enum"},
    "machine-run": {"--rule", "--graph", "--format", "--budget-machine", "--budget-enum"},
    "enumerate-disks": {"--ports", "--labels", "--radius", "--budget-enum"},
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(FLAGS)
    for name, sp in sub.choices.items():
        flags = {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
        assert flags == FLAGS[name], name
