"""The benchmark's own checks: failures are counted, tracing is sound.

    python3 -m pytest perfbench -q

Not part of the repository's test suite (``testpaths`` is ``tests``).
"""
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import steadiness  # noqa: E402
import workloads  # noqa: E402
from cgd import codec, corpus, library, machine, rules  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402


def test_mutant_rule_fails_orbit_check_without_crashing(monkeypatch):
    monkeypatch.setattr(workloads, "ORBIT_STEPS", 2)
    rec = workloads.Recorder()
    good = workloads.orbit_grid_setup(0)
    workloads.orbit_grid_run(good, rec)
    # the identity rule keeps one vertex where the orbit expects 4**n
    workloads.orbit_grid_run(dict(good, rule=library.identity_rule(4, (0,))), rec)
    assert (rec.attempted, rec.failed) == (2, 1)
    assert len(rec.latencies) == 1  # the failed orbit is not timed


def test_wrong_description_fails_simulation_check():
    rng = random.Random(3)
    graphs = [corpus.random_graph(rng, degree=2, size=8, alphabet=(0, 1)) for _ in range(3)]
    wrong = {2: codec.encode_rule(library.identity_rule(2, (0, 1)))}
    rec = workloads.Recorder()
    workloads.simulate_random_run({"descs": wrong, "graphs": graphs}, rec)
    right = {2: codec.encode_rule(library.xor_label_rule(2))}
    workloads.simulate_random_run({"descs": right, "graphs": graphs}, rec)
    # xor flips some label on most graphs, which identity cannot follow
    assert rec.attempted == 6 and 1 <= rec.failed <= 3
    assert rec.failed / rec.attempted > 0


def test_raising_check_counts_as_failed():
    x = corpus.grid_graph(2, 2)
    desc4 = codec.encode_rule(library.identity_rule(4, (0, 1)))
    world = machine.build_machine_world(codec.encode_graph(x, alphabet=(0, 1)), desc4)
    desc3 = codec.encode_rule(library.identity_rule(3, (0, 1)))
    rec = workloads.Recorder()
    # label_with(x, desc3) raises ParamMismatch: a 4-port graph, a 3-port rule
    workloads.machine_build_run({"builds": [(x, desc4, world), (x, desc3, world)]}, rec)
    assert (rec.attempted, rec.failed) == (2, 1)
    assert "ParamMismatch" in rec.failures[0]
    # only the good build's steps are timed
    good = workloads.Recorder()
    workloads.machine_build_run({"builds": [(x, desc4, world)]}, good)
    assert len(rec.latencies) == len(good.latencies) > 0


def test_validate_expects_the_mutant_rejected():
    base = library.identity_rule(1, (0,))
    cases = [(base, {"exhaustive": True}, "exhaustive"),
             (base, {"exhaustive": True}, "rejected")]  # wrong expectation
    rec = workloads.Recorder()
    workloads.validate_run({"cases": cases}, rec)
    assert (rec.attempted, rec.failed) == (2, 1)
    assert rec.latencies == []  # a set with a failed verdict is not timed


def small_mix():
    """A little of every traced path, quick enough to run twice."""
    rec = workloads.Recorder()
    x = corpus.grid_graph(2, 2)
    f = library.inflating_grid_rule()
    y = rules.apply_rule(f, x)
    codec.decode_graph(codec.read_code(codec.write_code(codec.encode_graph(y))))
    desc = codec.encode_rule(library.xor_label_rule(2))
    machine.check_intrinsic_simulation(library.xor_label_rule(2), corpus.cycle_graph(5), 2,
                                       desc=desc)
    desc4 = codec.encode_rule(library.identity_rule(4, (0, 1)))
    world = machine.build_machine_world(codec.encode_graph(x, alphabet=(0, 1)), desc4)
    workloads.machine_build_run({"builds": [(x, desc4, world)]}, rec)
    rules.validate_local_rule(library.identity_rule(1, (0,)), exhaustive=True)
    rules.validate_local_rule(library.identity_rule(2, (0, 1)), samples=20, seed=1,
                              budget=200)
    assert rec.failed == 0


def traced(fn):
    tr = Tracer()
    with tr:
        tr.span("bench.run", fn)()
    return tr


def test_traced_calls_repeat_and_self_times_add_up():
    first, second = traced(small_mix), traced(small_mix)
    calls = {k: v for k, (v, _) in first.metrics().items() if k.endswith(".calls")}
    assert calls == {k: v for k, (v, _) in second.metrics().items() if k.endswith(".calls")}
    assert all(calls[f"{name}.calls"] > 0 for name in TRACED)
    for tr in (first, second):
        _, _, name, t0, t1 = tr.spans[-1]
        assert name == "bench.run"
        # holds by construction when every span hands its time to its parent
        assert abs(tr.total_self() - (t1 - t0)) <= 1e-6 * (t1 - t0)
        assert tr.leftovers() == 0
        parents = {sid for sid, *_ in tr.spans} | {0}
        assert all(pid in parents for _, pid, *_ in tr.spans)


def test_uninstall_restores_every_original():
    import cgd

    before = {(m, a): getattr(getattr(cgd, m), a) for m in ("graph", "rules", "codec",
                                                            "machine")
              for a in dir(getattr(cgd, m)) if callable(getattr(getattr(cgd, m), a))}
    init, image = cgd.graph.PortGraph.__init__, cgd.rules.LocalRule.image
    with Tracer():
        assert cgd.rules.disk_around is not before[("rules", "disk_around")]
        assert cgd.graph.PortGraph.__init__ is not init
    after = {k: getattr(getattr(cgd, k[0]), k[1]) for k in before}
    assert all(after[k] is before[k] for k in before)
    assert cgd.graph.PortGraph.__init__ is init and cgd.rules.LocalRule.image is image


def test_tail_percentile_is_nearest_rank():
    assert run.percentile([3, 1, 2], 100) == 3
    assert run.percentile(range(1, 61), 75) == 45
    assert run.percentile(range(1, 1001), 99) == 990
    assert run.percentile([7], 99) == 7


def test_compare_refuses_different_tail_percentiles(capsys):
    def runs(pct):
        metrics = {m: {"value": 1.0} for m in ("setup_s", "op_ms_p50", "op_ms_tail",
                                               "work_per_s", "peak_rss_mb")}
        return {"orbit-grid": [{"metrics": metrics, "record": {"op_tail_percentile": pct}}
                               for _ in range(4)]}

    assert steadiness.compare(runs(100), runs(100))
    assert not steadiness.compare(runs(100), runs(75))
    assert "not compared" in capsys.readouterr().out


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "validate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_named_metric(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "machine-build",
                           "--seed", "2", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = bench["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        k: v["unit"] for k, v in result["metrics"].items()}
