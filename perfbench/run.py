"""Stage benchmark of the exact toricnets pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload n-scaling --seed 0 --seconds 36 \
        --trace 0

The run imports ``toricnets`` from ``src/`` (several times, to time
set-up), generates the workload's problems from the seed, and then runs
whole passes over them, one instance after another, for as many passes
as fit in ``--seconds`` (at least one).  Every outcome is checked against
the verdicts and artifact digests recorded in ``golden.json``.

With ``--trace 0`` the end-to-end metrics are reported.  With
``--trace 1`` one untraced pass is followed by traced passes, and the
per-layer metrics are reported, including the tracing overhead (traced
minus untraced pass time).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 11

END_TO_END = [
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("total_s", "s", "lower"),
    ("largest_s", "s", "lower"),
    ("systems_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

# per-layer call counts: metric -> traced key
CALLS = {
    "geom.disjoint.calls": "geom.disjoint",
    "network.walls_disjoint.calls": "network.walls_disjoint",
    "nonabelian.wall_factor.calls": "nonabelian.wall_factor",
    "nonabelian.cut_factor.calls": "nonabelian.cut_factor",
    "nonabelian.path_ordered.calls": "nonabelian.path_ordered",
    "laurent.mat_mul.calls": "laurent.mat_mul",
    "network.track_events.calls": "network.track_events",
    "network.track_path.calls": "network.track_path",
    "multisection.validate.calls": "multisection.validate",
    "cover.sheet_lift_map.calls": "cover.sheet_lift_map",
    "builder.build.calls": "builder.build",
}

# per-layer self times in ms: metric -> traced keys summed
SELF_MS = {
    "geom.disjoint_ms": ["geom.disjoint"],
    "nonabelian.wall_factor_ms": ["nonabelian.wall_factor"],
    "nonabelian.path_ordered_ms": ["nonabelian.path_ordered"],
    "nonabelian.loop_check_ms": ["nonabelian.loop_check"],
    "nonabelian.kaneyama_ms": ["nonabelian.kaneyama"],
    "nonabelian.verify_bundle_ms": ["nonabelian.verify_bundle"],
    "laurent.mat_mul_ms": ["laurent.mat_mul"],
    "network.track_events_ms": ["network.track_events"],
    "network.validate_ms": ["network.validate"],
    "builder.build_ms": ["builder.build"],
    "cover.build_ms": ["cover.build"],
    "schema.parse_ms": ["schema.parse"],
    "schema.emit_ms": ["schema.emit_network", "schema.emit_cocycle"],
    "fans.polytope_ms": ["fans.polytope"],
    "render.svg_ms": ["render.svg"],
}

GROWTH_LAYERS = ["geom", "network", "nonabelian", "laurent", "builder",
                 "cover", "multisection", "schema", "fans", "render"]

PER_LAYER = (
    [(m, "count", "lower") for m in CALLS]
    + [("network.walls_disjoint.per_net", "count", "lower"),
       ("multisection.validate.per_instance", "count", "lower")]
    + [(m, "ms", "lower") for m in SELF_MS]
    + [(f"{layer}.growth", "slope", "lower") for layer in GROWTH_LAYERS]
    + [("trace.total_s", "s", "lower"), ("trace.overhead_s", "s", "lower"),
       ("wall.total_s", "s", "lower"), ("wall.speed", "ratio", "higher")]
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup(workload, seed):
    """Import toricnets afresh and generate the inputs.

    Returns the last import and inputs, and the median set-up time at
    reference speed (see ``workloads.speed``).
    """
    times = []
    for _ in range(SETUP_REPEATS):
        # Free the previous import outside the timed region, so that each
        # set-up starts from the same heap and the copies do not pile up
        # in peak_rss_mb.
        tk = instances = None
        workloads.forget_toricnets()
        gc.collect()
        before = workloads.calibrate(0.0)
        start = time.perf_counter()
        tk = workloads.Toolkit()
        instances = workload.instances(tk, seed)
        elapsed = time.perf_counter() - start
        after = workloads.calibrate(0.0)
        times.append(elapsed * workloads.speed(before, after))
    return tk, instances, statistics.median(times)


def gate(outcomes, expected):
    """Labels whose verdict or artifact digests differ from the record."""
    return [o.label for o in outcomes if expected.get(o.label) != o.key()]


def run_until(workload, tk, instances, seconds, start, tracer=None):
    """Whole passes while the next one should end within ``seconds``.

    Runs at least one pass; the next pass is predicted to take as long,
    in wall time with its calibration, as the last one.
    """
    passes = []
    last = 0.0
    while not passes or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        passes.append(workloads.run_pass(workload, tk, instances, tracer))
        last = time.perf_counter() - t0
        elapsed, outs = passes[-1]
        print(f"perfbench: {'traced ' if tracer else ''}pass {elapsed:.3f} s "
              f"at reference speed, {sum(o.elapsed_s for o in outs):.3f} s "
              "wall", file=sys.stderr)
    return passes


def end_to_end(workload, passes, setup_s):
    largest = [o.ref_s for _, outs in passes for o in outs
               if o.label == workload.largest]
    return {
        "setup_s": setup_s,
        "total_s": statistics.median(e for e, _ in passes),
        "largest_s": statistics.median(largest),
        "systems_per_s": statistics.median(
            sum(o.systems for o in outs) / e for e, outs in passes),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _ref_counters(outcome):
    """An outcome's counters, with self times at reference speed."""
    c = dict(outcome.counters)
    c["self_s"] = {k: v * outcome.speed for k, v in c["self_s"].items()}
    return c


def _sum_counters(outcomes):
    total = {"calls": {}, "returns": {}, "self_s": {}}
    for o in outcomes:
        for part, values in _ref_counters(o).items():
            for key, v in values.items():
                total[part][key] = total[part].get(key, 0) + v
    return total


def _slope(points):
    """Least-squares slope of log y against log x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if y > 0]
    if len(pts) < 2 or len({x for x, _ in pts}) < 2:
        return None
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def growth(workload, instances, outcomes):
    """Per-layer log-log slope of self time against the workload's axis.

    Only realizable rank-2 instances count.  Points are grouped by the
    other size variable and the group slopes averaged.
    """
    groups = {}
    for inst, o in zip(instances, outcomes):
        point = workload.growth_point(inst)
        if point is not None:
            groups.setdefault(point[1], []).append(
                (point[0], layertrace.layer_self_s(_ref_counters(o))))
    out = {}
    for layer in GROWTH_LAYERS:
        slopes = [_slope([(x, t[layer]) for x, t in pts])
                  for pts in groups.values()]
        slopes = [s for s in slopes if s is not None]
        out[f"{layer}.growth"] = statistics.fmean(slopes) if slopes else 0.0
    return out


def per_layer(workload, instances, traced, reference):
    """Per-layer metrics of every traced pass, then their medians."""
    rows = []
    for elapsed, outs in traced:
        c = _sum_counters(outs)
        row = {m: c["calls"][key] for m, key in CALLS.items()}
        row.update({m: 1000 * sum(c["self_s"][k] for k in keys)
                    for m, keys in SELF_MS.items()})
        built = c["returns"]["builder.build"]
        row["network.walls_disjoint.per_net"] = (
            c["calls"]["network.walls_disjoint"] / built if built else 0.0)
        row["multisection.validate.per_instance"] = (
            c["calls"]["multisection.validate"] / len(outs))
        row.update(growth(workload, instances, outs))
        row["trace.total_s"] = elapsed
        row["trace.overhead_s"] = elapsed - reference[0]
        rows.append(row)
    out = {m: statistics.median(r[m] for r in rows) for m in rows[0]}
    out["wall.total_s"] = sum(o.elapsed_s for o in reference[1])
    out["wall.speed"] = statistics.median(o.speed for o in reference[1])
    return out


def silent_layers(workload, traced):
    """Traced functions that recorded no call although they should run."""
    calls = _sum_counters([o for _, outs in traced for o in outs])["calls"]
    return [key for _, _, key in layertrace.TRACED
            if key not in workload.not_run and calls.get(key, 0) == 0]


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "toricnets" / "__init__.py").is_file():
        print(f"perfbench: no toricnets sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # Import toricnets from the sources without writing bytecode, so every
    # import (and therefore setup_s) compiles from source the same way.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    catalogue = workloads.workloads(ROOT / "fixtures")
    if args.workload not in catalogue:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(catalogue)}", file=sys.stderr)
        return 2
    workload = catalogue[args.workload]
    with open(HERE / "golden.json") as fh:
        expected = json.load(fh)[workload.name][workload.input_key(args.seed)]

    tk, instances, setup_s = setup(workload, args.seed)
    start = time.perf_counter()
    problems = []
    if args.trace:
        reference = workloads.run_pass(workload, tk, instances)
        with layertrace.Tracer() as tracer:
            traced = run_until(workload, tk, instances, args.seconds, start,
                               tracer)
        passes = [reference] + traced
        for _, outs in traced:
            for o, ref in zip(outs, reference[1]):
                if o.key() != ref.key():
                    problems.append(f"{o.label}: traced outcome differs")
        silent = silent_layers(workload, traced)
        if silent:
            problems.append(f"traced functions with no calls: {silent}")
        metrics = per_layer(workload, instances, traced, reference)
        units = PER_LAYER
    else:
        passes = run_until(workload, tk, instances, args.seconds, start)
        metrics = end_to_end(workload, passes, setup_s)
        units = END_TO_END

    attempted = failed = 0
    for _, outs in passes:
        attempted += workload.units * len(outs)
        bad = gate(outs, expected)
        failed += workload.units * len(bad)
        problems += [f"{label}: verdict or digest differs from golden.json"
                     for label in bad]
    for p in sorted(set(problems)):
        print(f"perfbench: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
