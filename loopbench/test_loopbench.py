"""The benchmark's own tests:  python -m pytest loopbench  (from the repo root)."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, seed, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = result_of(run_bench(workload, 3, trace))
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
        assert all(isinstance(v["value"], float) for v in res["metrics"].values())


def test_two_seeds_give_different_inputs_and_the_same_metrics():
    a, b = result_of(run_bench("qchar-build", 1, 0)), result_of(run_bench("qchar-build", 2, 0))
    assert set(a["metrics"]) == set(b["metrics"])
    for wl in (workloads.BlockStream(("A2", "G2")), workloads.QcharBuild(small=True),
               workloads.CliCold(ROOT, ""), workloads.VerifyAll(ROOT, "")):
        if isinstance(wl, workloads.InProcess):
            wl.setup()

        def first(seed):
            return [repr(req) for req in next(wl.rounds(seed))[:20]]

        assert first(1) == first(1)
        assert first(1) != first(2)


def test_corrupted_expected_output_is_a_failure_not_a_crash(tmp_path):
    pool = workloads.load_pool()
    bad = dict(pool["light"][0], sha256="0" * 64)
    wl = workloads.CliCold(ROOT, str(tmp_path), {"light": [bad], "heavy": [bad], "error": [bad]})
    wl.reset(0)
    loop = worker.closed_loop(wl, wl.rounds(0), 0, limit=2)
    assert len(loop.latencies) == 2 and loop.failed == 2


def test_setup_steps_build_what_setup_builds():
    wl = workloads.QcharBuild(small=True)
    setups = worker.timed_setups(wl, 2)
    stepped = (list(wl.minuscule), dict(wl.d_tables), dict(wl.b_tables))
    wl.reset(0)
    wl.setup()
    assert stepped == (wl.minuscule, wl.d_tables, wl.b_tables)
    assert len(setups.seconds) == len(setups.ref_units) == 2
    assert all(s > 0 for s in setups.seconds + setups.ref_units)
    blocks = workloads.BlockStream(("A2", "G2"))
    assert len(blocks.setup_steps()) == 4


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("block-stream", 1, 0, cwd=tmp_path, script=str(tmp_path / "loopbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == [w for w in workloads.WORKLOADS if w != "verify-all"]
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracer.per_layer_specs()


def test_strings_oracle_agrees_with_segment_rule_of_the_library():
    import loopchar as lc

    for m1 in range(0, 6):
        for m2 in range(0, 6):
            for gap in range(-12, 13):
                a1, a2 = ("a", 0), ("a", gap)
                lib = lc.sl2_tensor_irreducible([lc.Sl2String(a1, m1), lc.Sl2String(a2, m2)])
                assert lib == workloads._strings_irreducible(a1, m1, a2, m2), (m1, m2, gap)


def test_self_time_excludes_child_spans():
    tr = tracer.Tracer()
    tr.active = True

    def inner():
        return sum(range(20000))

    wrapped_inner = tr.wrap("braid.inner", inner)

    def outer():
        return wrapped_inner() + wrapped_inner()

    tr.wrap("blocks.outer", outer)()
    assert tr.calls == {"braid.inner": 2, "blocks.outer": 1}
    assert tr.self_s["blocks.outer"] < tr.incl["blocks.outer"]
    assert abs(tr.incl["blocks.outer"] - tr.self_s["blocks.outer"] - tr.incl["braid.inner"]) < 1e-6
    parents = {span[0]: span[1] for span in tr.spans}
    outer_id = next(s[0] for s in tr.spans if s[3] == "blocks.outer")
    assert [parents[s[0]] for s in tr.spans if s[3] == "braid.inner"] == [outer_id, outer_id]
