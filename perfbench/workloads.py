"""Workloads of the stage benchmark and the pipeline each instance runs.

A workload turns the ``--seed`` argument into a list of instances, each a
serialized ``toricnets/problem.v1`` document, and runs one instance at a
time (a closed loop with a single caller).  Running an instance returns an
``Outcome``: the documented result (``verified`` or the name of the typed
error) and the sha256 digests of the artifacts the CLI would write.

Why these workloads:

* ``n-scaling``: one 8-ray fan, N = 1..8 plus a rank-1 problem.  Walls
  grow as 3(N-2), so the network and factor layers (disjointness checks,
  wall and cut factors, path-ordered products) do most of the work and
  grow fastest.  N = 1, 2 end in the documented NotRealizable rejection.
* ``wide-fan``: n in {12, 16, 20} rays with N in {3, 4}.  Few walls, but
  n^2 transition matrices and n^3 triple cocycle checks, so the work lands
  in ``laurent`` and ``verify_bundle``; a network-layer change should not
  move it.
* ``holonomy-sweep``: ``toricnets verify`` (``cli.cmd_verify``) on the
  fixtures ``p1p1_n4`` (b1 = 1) and ``fan5_n5`` (b1 = 2): one build, then
  25 seeded local systems through every loop identity and one full
  cocycle check.  Per-network work repeats for every holonomy, so a cache
  keyed on the network helps here and one keyed on the local system does
  not.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

import gen

# The seed of a generated workload selects one of this many input
# variants; the artifact digests of every variant are recorded in
# golden.json, so any seed can be gated.
VARIANTS = 8

MODULES = ["errors", "geom", "laurent", "fans", "multisection", "cover",
           "network", "builder", "nonabelian", "render", "reporting",
           "schema", "cli"]

VERIFIED = "verified"

# Speed calibration.  On shared machines the speed of the same pass drifts
# by up to 1.7x, over seconds and over minutes.  The benchmark therefore
# times a fixed stdlib-only kernel (exact orientation tests on Fraction
# points, the kind of work the geometry layer does) before the first
# instance and after every instance, for about CALIBRATION_SHARE of the
# instance's time.  An instance's time is reported at reference speed:
# its wall time times CALIBRATION_REF_S over the mean kernel time of the
# calibrations on either side of it.  The kernel shares no code with
# toricnets, so a change to the program cannot move it.
CALIBRATION_REF_S = 0.04
CALIBRATION_SHARE = 0.1
_KERNEL_POINTS = [(Fraction(i, 7), Fraction(i * i % 13, 5))
                  for i in range(24)]


def _kernel():
    positive = 0
    for a in _KERNEL_POINTS:
        for b in _KERNEL_POINTS:
            for c in _KERNEL_POINTS[::6]:
                positive += ((b[0] - a[0]) * (c[1] - a[1])
                             - (b[1] - a[1]) * (c[0] - a[0])) > 0
    return positive


def calibrate(min_s):
    """(seconds, calls) of kernel runs: at least one, and at least min_s."""
    clock = time.perf_counter
    start = clock()
    calls = 0
    while calls == 0 or clock() - start < min_s:
        _kernel()
        calls += 1
    return clock() - start, calls


def speed(before, after):
    """Reference kernel time over the measured one, from two calibrations."""
    return CALIBRATION_REF_S * (before[1] + after[1]) / (before[0] + after[0])


class Toolkit:
    """The toricnets modules, as attributes."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name,
                    importlib.import_module(f"toricnets.{name}"))


def forget_toricnets():
    """Drop every loaded toricnets module, so the next import redoes it."""
    for name in [m for m in sys.modules
                 if m == "toricnets" or m.startswith("toricnets.")]:
        del sys.modules[name]


@dataclass(frozen=True)
class Instance:
    label: str
    text: str                 # problem.v1 JSON
    n: int                    # rays of the fan
    crossings: int | None     # N, or None for rank 1
    verify_seed: int | None = None


@dataclass
class Outcome:
    label: str
    status: str
    digests: dict = field(default_factory=dict)
    systems: int = 0          # local systems that passed every loop check
    elapsed_s: float = 0.0    # wall time
    speed: float = 1.0        # see speed(); ref_s = elapsed_s * speed
    counters: dict = field(default_factory=dict)   # traced passes only

    @property
    def ref_s(self):
        """Time at reference speed."""
        return self.elapsed_s * self.speed

    def key(self):
        return {"status": self.status, **self.digests}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def artifact_text(data):
    """The bytes ``schema.dump_json`` writes for a document."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def nonabelianize(tk, text):
    """The stages of ``toricnets nonabelianize`` on one problem document.

    Returns the artifact digests; raises the pipeline's typed error for a
    rejected problem.
    """
    spec = tk.schema.parse_problem(json.loads(text))
    tms = spec.tms
    report = tk.multisection.validate(tms)
    if not report.ok:
        raise tk.errors.NotRealizable(f"invalid multi-section: {report}")
    if tms.degree == 2:
        tk.multisection.classify_two_fold(tms)
        n_value = tk.multisection.n_genericity(tms)
        if not tk.multisection.parity_and_realizability(
                tms, n_value).parity_ok:
            raise tk.errors.ParityViolation(f"N = {n_value} parity mismatch")
    net, layout = tk.builder.build_network(tms, spec.disk)
    cover = tk.cover.build_cover(spec.disk, layout, tms.degree)
    holonomies = spec.holonomies or [Fraction(1)] * tk.cover.betti_one(cover)
    ls = tk.cover.make_local_system(cover, holonomies)
    coc = tk.nonabelian.kaneyama_cocycle(net, tms, cover, ls)
    verdict = tk.nonabelian.verify_bundle(coc, tms)
    if not verdict.ok:
        raise tk.errors.ToricNetsError(f"bundle verification: {verdict}")
    return {
        "network": sha256(artifact_text(tk.schema.emit_network(net))),
        "cocycle": sha256(artifact_text(tk.schema.emit_cocycle(coc))),
        "svg": sha256(tk.render.render_svg(spec.disk, net, layout)),
    }


def _guarded(tk, label, body):
    """Outcome of one instance; a failure becomes its error's class name."""
    try:
        digests, systems = body()
        return Outcome(label, VERIFIED, digests, systems)
    except tk.errors.ToricNetsError as exc:
        return Outcome(label, type(exc).__name__)
    except Exception as exc:  # noqa: BLE001 -- a crash is a gated outcome
        traceback.print_exc(file=sys.stderr)
        return Outcome(label, f"crash:{type(exc).__name__}")


class Generated:
    """A family of generated problems run through ``nonabelianize``."""

    units = 1                 # attempted units per instance
    not_run = {"cli.verify"}  # traced functions this workload never calls

    def __init__(self, name, shapes, largest, axis):
        self.name = name
        self.shapes = shapes      # [(label, n, N or None)]
        self.largest = largest
        self.axis = axis          # "N" or "n": the growth variable

    def input_key(self, seed):
        return f"variant{seed % VARIANTS}"

    def instances(self, tk, seed):
        key = f"{self.name}:{self.input_key(seed)}"
        return [Instance(label, gen.serialize(gen.generate(n, N, key, tk)),
                         n, N)
                for label, n, N in self.shapes]

    def run(self, tk, inst):
        def body():
            return nonabelianize(tk, inst.text), 1
        return _guarded(tk, inst.label, body)

    def growth_point(self, inst):
        """(size, group) of a realizable rank-2 instance, else None."""
        if inst.crossings is None or inst.crossings < 3:
            return None
        if self.axis == "N":
            return inst.crossings, inst.n
        return inst.n, inst.crossings


class HolonomySweep:
    """``toricnets verify`` on two fixtures with seeded local systems."""

    name = "holonomy-sweep"
    fixtures = [("p1p1_n4", 4, 4), ("fan5_n5", 5, 5)]
    largest = "fan5_n5"
    count = 25
    units = count + 1         # 25 swept local systems and one cocycle
    # cmd_verify writes no artifacts
    not_run = {"schema.emit_network", "schema.emit_cocycle", "render.svg"}

    def __init__(self, fixture_dir):
        self.fixture_dir = fixture_dir

    def input_key(self, seed):
        return "fixtures"

    def instances(self, tk, seed):
        rng = random.Random(f"toricnets-perfbench:{self.name}:{seed}")
        out = []
        for label, n, N in self.fixtures:
            with open(self.fixture_dir / f"{label}.json") as fh:
                doc = json.load(fh)
            out.append(Instance(label, gen.serialize(doc), n, N,
                                rng.randrange(2 ** 31)))
        return out

    def run(self, tk, inst):
        def body():
            spec = tk.schema.parse_problem(json.loads(inst.text))
            report = {"schema": tk.schema.REPORT_SCHEMA, "stages": [],
                      "artifacts": [], "seed": inst.verify_seed}
            tk.cli.cmd_verify(spec, report, inst.verify_seed, self.count)
            if not all(s["status"] == "pass" for s in report["stages"]):
                raise tk.errors.ToricNetsError("a verify stage failed")
            # stage names and details do not depend on the holonomies
            stages = sha256(json.dumps(report["stages"], sort_keys=True))
            return {"report": stages}, self.units
        return _guarded(tk, inst.label, body)

    def growth_point(self, inst):
        """Both fixtures in one group, sized by N."""
        return inst.crossings, None


def workloads(fixture_dir):
    n_scaling = Generated(
        "n-scaling",
        [("rank1", 8, None)] + [(f"N{N}", 8, N) for N in range(1, 9)],
        largest="N8", axis="N")
    wide_fan = Generated(
        "wide-fan",
        [(f"n{n}_N{N}", n, N) for n in (12, 16, 20) for N in (3, 4)],
        largest="n20_N4", axis="n")
    return {w.name: w for w in (n_scaling, wide_fan,
                                HolonomySweep(fixture_dir))}


def run_pass(workload, tk, instances, tracer=None):
    """One pass over the instances, each timed and calibrated on its own.

    Returns (time of the pass at reference speed, outcomes).
    """
    outcomes = []
    clock = time.perf_counter
    before = calibrate(0.0)
    for inst in instances:
        snapshot = tracer.snapshot() if tracer else None
        t0 = clock()
        outcome = workload.run(tk, inst)
        outcome.elapsed_s = clock() - t0
        if tracer:
            outcome.counters = tracer.delta(tracer.snapshot(), snapshot)
        after = calibrate(CALIBRATION_SHARE * outcome.elapsed_s)
        outcome.speed = speed(before, after)
        before = after
        outcomes.append(outcome)
    return sum(o.ref_s for o in outcomes), outcomes
