"""The contract between the package and the benchmark's layer tracer.

``perfbench/layertrace.py`` counts the calls of every function in its
``TRACED`` list by rebinding it in each ``toricnets`` module namespace,
and refuses to trace (``TraceError``) while any other container still
refers to one of them.  A refactor that turns a traced function into a
method, or stores one in a table, breaks trace mode without failing any
other test here, so these tests read the list and run the tracer; they
write nothing under ``perfbench/``.
"""
import importlib
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

from support import FIXTURES

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _traced():
    """``layertrace.TRACED``, read from the source without importing it."""
    path = PERFBENCH / "layertrace.py"
    module = types.ModuleType("layertrace")
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module.TRACED


def test_every_traced_function_is_a_module_level_function():
    traced = _traced()
    assert traced
    for module, attr, _ in traced:
        fn = getattr(importlib.import_module(f"toricnets.{module}"), attr)
        assert inspect.isfunction(fn), (module, attr)
        assert (fn.__module__, fn.__qualname__) == (f"toricnets.{module}",
                                                    attr)


# Run in a fresh interpreter: the test modules import traced functions by
# name, and the tracer rightly refuses to trace while they hold them.
_TRACED_RUN = """
import json, sys
import layertrace, workloads
tk = workloads.Toolkit()
with layertrace.Tracer() as tracer:
    workloads.nonabelianize(tk, open(sys.argv[1]).read())
print(json.dumps(tracer.calls))
"""


def test_traced_nonabelianize_calls_every_traced_function():
    # the tracer installs without TraceError, and one nonabelianize of
    # fan5_n5 reaches every traced function but the verify command
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    run = subprocess.run(
        [sys.executable, "-B", "-c", _TRACED_RUN,
         str(FIXTURES / "fan5_n5.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    calls = json.loads(run.stdout)
    assert sorted(calls) == sorted(key for _, _, key in _traced())
    assert [key for key, count in calls.items() if count == 0] == \
        ["cli.verify"]


# ``toricnets verify`` as the benchmark's holonomy sweep runs it: parse the
# problem, then ``cli.cmd_verify`` with a report and a seed
_TRACED_VERIFY = """
import json, sys
import layertrace, workloads
tk = workloads.Toolkit()
doc = json.load(open(sys.argv[1]))
with layertrace.Tracer() as tracer:
    spec = tk.schema.parse_problem(doc)
    report = {"schema": tk.schema.REPORT_SCHEMA, "stages": [],
              "artifacts": [], "seed": 7}
    tk.cli.cmd_verify(spec, report, 7, 25)
print(json.dumps({"calls": tracer.calls, "stages": report["stages"]}))
"""


def test_traced_verify_calls_every_traced_function_but_the_writers():
    # the verify command writes no artifacts; every other traced function
    # must be called, so none of its layers goes silent in a traced run
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    run = subprocess.run(
        [sys.executable, "-B", "-c", _TRACED_VERIFY,
         str(FIXTURES / "fan5_n5.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "TraceError" not in run.stderr
    out = json.loads(run.stdout)
    assert all(s["status"] == "pass" for s in out["stages"])
    calls = out["calls"]
    assert sorted(calls) == sorted(key for _, _, key in _traced())
    assert sorted(key for key, count in calls.items() if count == 0) == \
        ["render.svg", "schema.emit_cocycle", "schema.emit_network"]
