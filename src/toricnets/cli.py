"""Command-line front end.

Commands:
  validate       run fan / multi-section / (optional) network validators
  build          run the rank-2 construction, emit network JSON + SVG
  nonabelianize  full pipeline with chosen holonomies, emit cocycle JSON
  verify         prove the loop identities for all local systems at once
                 (symbolic holonomies), which builds the universal
                 cocycle's adjacent steps; then check the Kaneyama cocycle
                 of one seeded random local system, those steps evaluated
                 at its holonomies
  render         figure of the polygon, spokes, walls, and cuts

Exit status is 0 iff every requested check passed.  Outputs are
deterministic for fixed inputs: fixed iteration orders, seeded randomness
recorded in the report.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import builder, multisection, nonabelian, network, schema
from .cover import make_local_system, betti_one
from .errors import (LoopIdentityFailed, NotRealizable, ParityViolation,
                     ParseError, ToricNetsError)
from .laurent import TPoly
from .render import render_svg
from .reporting import ValidationReport


def _stage(report, name, fn):
    try:
        detail = fn()
        report["stages"].append(
            {"name": name, "status": "pass",
             "detail": detail if isinstance(detail, (str, int, list, dict))
             else None})
        return detail
    except ToricNetsError as exc:
        report["stages"].append(
            {"name": name, "status": "fail", "detail": str(exc)})
        raise


def _new_report(seed=None):
    return {"schema": schema.REPORT_SCHEMA, "stages": [], "artifacts": [],
            "seed": seed}


def _ok(report):
    return all(s["status"] == "pass" for s in report["stages"])


def _validator_stage(report, name, run):
    rep = run()
    status = "pass" if rep.ok else "fail"
    report["stages"].append({"name": name, "status": status,
                             "detail": rep.as_dict()})
    return rep


def cmd_validate(spec, report):
    _validator_stage(report, "fan", lambda: _fan_report(spec))
    if spec.tms is not None:
        _validator_stage(report, "multisection", lambda: spec.tms.report)
    if spec.network is not None and spec.tms is not None:
        cover = spec.layout.cover(spec.tms.degree)
        _validator_stage(report, "network",
                         lambda: network.validate_network(spec.network,
                                                          spec.tms, cover))
    return report


def _fan_report(spec):
    # construction already validated the fan and the support function
    spec.polytope
    return ValidationReport()


def _pipeline(spec, report):
    tms = spec.tms
    if tms is None:
        raise ParseError("this command needs a multisection")
    _stage(report, "validate",
           lambda: "ok" if tms.report.ok else _raise_invalid(tms))
    if tms.degree == 1:
        net, layout = _stage(report, "build",
                             lambda: builder.build_network(tms, spec.disk))
        return net, layout, None
    _stage(report, "classify", lambda: tms.cover_class.tag)
    n_value = _stage(report, "n_genericity",
                     lambda: multisection.n_genericity(tms))
    _stage(report, "parity", lambda: _parity_detail(tms, n_value))
    net, layout = _stage(report, "build",
                         lambda: builder.build_network(tms, spec.disk))
    return net, layout, n_value


def _raise_invalid(tms):
    raise NotRealizable(f"invalid multi-section: {tms.report}")


def _parity_detail(tms, n_value):
    res = multisection.parity_and_realizability(tms, n_value)
    if not res.parity_ok:
        raise ParityViolation(f"N = {n_value} parity mismatch")
    return {"N": n_value, "parity_ok": res.parity_ok,
            "realizable": res.realizable, "betti_one": res.betti_one}


def cmd_build(spec, report, outdir):
    net, layout, _ = _pipeline(spec, report)
    outdir.mkdir(parents=True, exist_ok=True)
    net_path = outdir / "network.json"
    svg_path = outdir / "network.svg"
    schema.dump_json(schema.emit_network(net), net_path)
    svg_path.write_text(render_svg(spec.disk, net, layout))
    report["artifacts"] += [str(net_path), str(svg_path)]
    return net, layout


def _local_system(spec, cover, holonomy_arg):
    b1 = betti_one(cover)
    if holonomy_arg:
        try:
            hol = [Fraction(h) for h in holonomy_arg.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(
                f"--holonomy {holonomy_arg!r} is not a list of rationals: "
                f"{exc}") from exc
    elif spec.holonomies:
        hol = list(spec.holonomies)
    else:
        hol = [Fraction(1)] * b1
    return make_local_system(cover, hol), hol


def cmd_nonabelianize(spec, report, outdir, holonomy_arg):
    net, layout, _ = _pipeline(spec, report)
    cover = layout.cover(spec.tms.degree)
    ls, hol = _local_system(spec, cover, holonomy_arg)
    report["holonomies"] = [str(h) for h in hol]
    coc = _stage(report, "nonabelianize",
                 lambda: nonabelian.kaneyama_cocycle(net, spec.tms, cover, ls))
    _validator_stage(report, "verify_bundle",
                     lambda: nonabelian.verify_bundle(coc, spec.tms))
    outdir.mkdir(parents=True, exist_ok=True)
    coc_path = outdir / "cocycle.json"
    schema.dump_json(schema.emit_cocycle(coc), coc_path)
    report["artifacts"].append(str(coc_path))
    return coc


def cmd_verify(spec, report, seed, count=25):
    net, layout, n_value = _pipeline(spec, report)
    cover = layout.cover(spec.tms.degree)
    b1 = betti_one(cover)
    rng = random.Random(seed)

    def random_holonomies():
        return [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                for _ in range(b1)]

    universal = None

    def sweep():
        nonlocal universal
        # every seeded system is drawn and built: that runs the count and
        # nonzero checks, and keeps the kaneyama stage on the same draw
        for _ in range(count):
            make_local_system(cover, random_holonomies())
        # one exact proof in Q[z^±, t^±] covers every local system, and
        # its cocycle is the universal one
        symbolic = make_local_system(cover, TPoly.symbols(b1))
        try:
            universal = nonabelian.kaneyama_cocycle(net, spec.tms, cover,
                                                    symbolic)
        except LoopIdentityFailed as exc:
            names = ", ".join(f"t_{k}" for k in range(1, b1 + 1))
            raise LoopIdentityFailed(
                f"{exc} with symbolic holonomies [{names}]") from exc
        return f"{count} local systems"

    _stage(report, "loop_identities", sweep)

    def cocycle_checks():
        hol = random_holonomies()
        make_local_system(cover, hol)
        coc = universal.evaluated(hol)
        rep = nonabelian.verify_bundle(coc, spec.tms)
        if not rep.ok:
            raise ToricNetsError(f"bundle verification failed: {rep}")
        return "ok"

    _stage(report, "kaneyama", cocycle_checks)
    return report


def cmd_render(spec, report, out_path):
    layout = spec.layout
    net = spec.network
    if net is None and spec.tms is not None:
        try:
            net, layout = builder.build_network(spec.tms, spec.disk)
        except ToricNetsError:
            net, layout = None, None
    svg = render_svg(spec.disk, net, layout)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(svg)
    report["stages"].append({"name": "render", "status": "pass",
                             "detail": str(out_path)})
    report["artifacts"].append(str(out_path))
    return svg


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="toricnets",
        description="toric vector bundles from spectral networks, exactly")
    parser.add_argument("command",
                        choices=["validate", "build", "nonabelianize",
                                 "verify", "render"])
    parser.add_argument("--input", required=True, help="problem JSON file")
    parser.add_argument("--out", default="out", help="output directory/file")
    parser.add_argument("--holonomy", default="",
                        help="comma-separated rational holonomies")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--report", choices=["json", "text"], default="text")
    args = parser.parse_args(argv)

    report = _new_report(args.seed)
    status = 0
    try:
        spec = schema.load_problem(args.input)
        if args.command == "validate":
            cmd_validate(spec, report)
        elif args.command == "build":
            cmd_build(spec, report, Path(args.out))
        elif args.command == "nonabelianize":
            cmd_nonabelianize(spec, report, Path(args.out), args.holonomy)
        elif args.command == "verify":
            cmd_verify(spec, report, args.seed)
        elif args.command == "render":
            out = Path(args.out)
            if out.suffix != ".svg":
                out = out / "figure.svg"
            cmd_render(spec, report, out)
    except ToricNetsError as exc:
        if not report["stages"] or report["stages"][-1]["status"] == "pass":
            report["stages"].append({"name": "error", "status": "fail",
                                     "detail": str(exc)})
    if not _ok(report):
        status = 1
    if args.report == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for s in report["stages"]:
            print(f"[{s['status']:>4}] {s['name']}"
                  + (f": {s['detail']}" if s.get("detail") else ""))
        for a in report["artifacts"]:
            print(f"wrote {a}")
    return status


if __name__ == "__main__":
    sys.exit(main())
