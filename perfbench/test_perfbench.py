"""Tests of the benchmark's own code: generator, digest gate, tracer.

Run from the root of a checkout:

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def tk():
    return workloads.Toolkit()


@pytest.fixture(scope="module")
def catalogue():
    return workloads.workloads(ROOT / "fixtures")


@pytest.fixture(scope="module")
def golden():
    return json.loads((HERE / "golden.json").read_text())


def small(workload, tk, seed, labels=("rank1", "N1", "N2", "N3", "N4")):
    return [i for i in workload.instances(tk, seed) if i.label in labels]


def test_same_seed_gives_identical_problems(tk, catalogue):
    for name in ("n-scaling", "wide-fan"):
        w = catalogue[name]
        first = [i.text for i in w.instances(tk, 5)]
        again = [i.text for i in w.instances(tk, 5)]
        other = [i.text for i in w.instances(tk, 6)]
        assert first == again
        assert first != other


def test_generated_problems_have_the_requested_crossings(tk):
    for n in (8, 12):
        for crossings in range(1, 9):
            doc = gen.generate(n, crossings, "test", tk)
            tms = tk.schema.parse_problem(doc).tms
            assert tk.multisection.validate(tms).ok
            assert tk.multisection.n_genericity(tms) == crossings
            tag = tk.multisection.classify_two_fold(tms).tag
            assert tag == ("O" if crossings % 2 else "E")


def test_generator_rejects_impossible_requests(tk):
    with pytest.raises(gen.GenerationError):
        gen.generate(8, 9, "test", tk)


def test_recorded_digests_match_a_fresh_run(tk, catalogue, golden):
    w = catalogue["n-scaling"]
    outcomes = workloads.run_pass(w, tk, small(w, tk, 13))[1]
    expected = golden[w.name][w.input_key(13)]
    assert run.gate(outcomes, expected) == []
    statuses = {o.label: o.status for o in outcomes}
    assert statuses["N1"] == statuses["N2"] == "NotRealizable"
    assert statuses["N3"] == statuses["rank1"] == workloads.VERIFIED


def test_perturbed_artifact_trips_the_gate(tk, catalogue, golden):
    w = catalogue["n-scaling"]
    inst = small(w, tk, 0, labels=("N3",))[0]
    outcome = w.run(tk, inst)
    expected = golden[w.name][w.input_key(0)]
    assert run.gate([outcome], expected) == []

    spec = tk.schema.parse_problem(json.loads(inst.text))
    net, _ = tk.builder.build_network(spec.tms, spec.disk)
    doc = tk.schema.emit_network(net)
    doc["walls"][0]["polyline"][-1][0] += "1"
    outcome.digests["network"] = workloads.sha256(
        workloads.artifact_text(doc))
    assert run.gate([outcome], expected) == ["N3"]


def test_wrong_verdict_trips_the_gate(tk, catalogue, golden):
    w = catalogue["n-scaling"]
    outcome = w.run(tk, small(w, tk, 0, labels=("N1",))[0])
    expected = golden[w.name][w.input_key(0)]
    assert run.gate([outcome], expected) == []
    outcome.status = workloads.VERIFIED
    assert run.gate([outcome], expected) == ["N1"]


def test_traced_and_untraced_runs_agree(tk, catalogue):
    w = catalogue["n-scaling"]
    instances = small(w, tk, 2)
    plain = workloads.run_pass(w, tk, instances)[1]
    with layertrace.Tracer() as tracer:
        traced = workloads.run_pass(w, tk, instances, tracer)[1]
    assert [o.key() for o in traced] == [o.key() for o in plain]
    assert tracer.calls["geom.disjoint"] > 0
    assert tracer.calls["network.walls_disjoint"] > tracer.returns[
        "builder.build"]


def test_tracer_counts_every_call(tk, catalogue):
    """Wrapper counts equal an independent count by the profiler hook."""
    w = catalogue["n-scaling"]
    inst = small(w, tk, 1, labels=("N4",))[0]
    codes = {}
    for module, attr, key in layertrace.TRACED:
        fn = getattr(getattr(tk, module), attr)
        codes[fn.__code__] = key
    seen = dict.fromkeys(codes.values(), 0)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1

    with layertrace.Tracer() as tracer:
        sys.setprofile(hook)
        try:
            w.run(tk, inst)
        finally:
            sys.setprofile(None)
    assert tracer.calls == seen


def test_uninstall_restores_every_binding(tk):
    # ids, not the functions: holding the originals in a dict would make
    # the tracer refuse to install
    def bindings():
        return {(name, attr): id(value) for name in workloads.MODULES
                for attr, value in vars(getattr(tk, name)).items()}

    before = bindings()
    mat_mul = id(tk.laurent.mat_mul)
    with layertrace.Tracer():
        assert id(tk.laurent.mat_mul) != mat_mul
        assert tk.nonabelian.mat_mul is tk.laurent.mat_mul
    assert bindings() == before


def test_tracer_refuses_a_call_site_it_cannot_rebind(tk):
    table = {"mul": tk.laurent.mat_mul}
    with pytest.raises(layertrace.TraceError):
        with layertrace.Tracer():
            pass
    del table


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in
            spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in
            spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.workloads(ROOT / "fixtures"))


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "n-scaling",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
