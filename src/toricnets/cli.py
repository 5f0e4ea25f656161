"""Command-line front end.

Commands:
  validate       run fan / multi-section / (optional) network validators,
                 and check a document's holonomies as nonabelianize would;
                 a network is validated against the multi-section
  build          run the rank-2 construction, emit network JSON + SVG
  nonabelianize  full pipeline with chosen holonomies, emit cocycle JSON
  verify         build seeded random local systems, then prove the loop
                 identities for all local systems at once (symbolic
                 holonomies), which builds the universal cocycle's
                 adjacent steps; then check the Kaneyama cocycle at one
                 more seeded draw of holonomies, those steps evaluated
                 there directly, with no local system built for the draw
  render         figure of the polygon, spokes, walls, and cuts; an
                 embedded network's layout must give a cover first, and
                 a multi-section without one must build a network

Each check fails the stage it runs in (``_stage``), a wrong count or a
zero among the holonomies fails ``holonomies`` (``_holonomies``), and an
error outside every stage fails a last ``error`` stage.  ``nonabelianize``
decides its holonomies (parse, count, nonzero) once b1 is read from the
multi-section, after the parity stage and before the build.  Exit status is
0 iff every stage passed.  Outputs are deterministic for fixed inputs:
fixed iteration orders, seeded randomness recorded in the report.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import builder, multisection, nonabelian, network, schema
from .cover import betti_one, check_holonomies, make_local_system
from .errors import (LoopIdentityFailed, NotRealizable, NotTwoFold,
                     ParseError, ToricNetsError, WrongCount, ZeroHolonomy)
from .laurent import TPoly
from .render import render_svg
from .reporting import ValidationReport


def _stage(report, name, fn):
    """Record stage ``name`` from ``fn()`` and return that result.

    A ``ValidationReport`` passes or fails on its verdict; a returned
    ``ToricNetsError`` fails; a raised one fails and propagates; anything
    else passes, with itself as detail if it is JSON-shaped.
    """
    try:
        result = fn()
    except ToricNetsError as exc:
        _stage(report, name, lambda: exc)
        raise
    if isinstance(result, ValidationReport):
        status, detail = ("pass" if result.ok else "fail"), result.as_dict()
    elif isinstance(result, ToricNetsError):
        status, detail = "fail", str(result)
    else:
        status = "pass"
        detail = result if isinstance(result, (str, int, list, dict)) else None
    report["stages"].append({"name": name, "status": status, "detail": detail})
    return result


def _new_report(seed=None):
    return {"schema": schema.REPORT_SCHEMA, "stages": [], "artifacts": [],
            "seed": seed}


def _ok(report):
    return all(s["status"] == "pass" for s in report["stages"])


def cmd_validate(spec, report):
    tms = spec.tms
    _stage(report, "fan", lambda: _fan_report(spec))
    if tms is not None:
        _stage(report, "multisection", lambda: tms.report)
    if spec.network is not None:
        _stage(report, "network", lambda: _network_report(spec))
    # on a valid, realizable multi-section the holonomies nonabelianize
    # would take are checked as it checks them
    if spec.holonomies and tms is not None and tms.report.ok:
        try:
            b1 = _betti_one(tms)
        except NotTwoFold:
            b1 = None
        if b1 is not None:
            _holonomies(report, b1, spec.holonomies)
    return report


def _betti_one(tms):
    """b1 of the cover the builder makes for a valid multi-section, read
    from the multi-section: 0 in degree 1, and None when no network is
    realizable."""
    if tms.degree == 1:
        return 0
    res = tms.realizability
    return res.betti_one if res.parity_ok and res.realizable else None


def _holonomies(report, b1, holonomies):
    """``check_holonomies``, whose wrong holonomy count or zero holonomy
    fails a ``holonomies`` stage and propagates; a pass adds no stage."""
    try:
        check_holonomies(b1, holonomies)
    except (WrongCount, ZeroHolonomy) as exc:
        _stage(report, "holonomies", lambda: exc)
        raise


def _fan_report(spec):
    # construction validated the fan; the polygon checks strict convexity
    spec.polytope
    return ValidationReport()


def _network_report(spec):
    if spec.tms is None:
        raise ParseError("an embedded network needs a multisection to be "
                         "validated against")
    cover = spec.network.layout.cover(spec.tms.degree)
    return network.validate_network(spec.network, spec.tms, cover)


def _pipeline(spec, report):
    _checked(spec, report)
    return _build(spec, report)


def _checked(spec, report):
    """The stages before the build; returns the multi-section."""
    tms = spec.tms
    if tms is None:
        raise ParseError("this command needs a multisection")
    _stage(report, "validate",
           lambda: "ok" if tms.report.ok else _raise_invalid(tms))
    if tms.degree != 1:
        _stage(report, "classify", lambda: tms.cover_class.tag)
        n_value = _stage(report, "n_genericity",
                         lambda: multisection.n_genericity(tms))
        _stage(report, "parity", lambda: _parity_detail(tms, n_value))
    return tms


def _build(spec, report):
    return _stage(report, "build",
                  lambda: builder.build_network(spec.tms, spec.disk))


def _raise_invalid(tms):
    raise NotRealizable(f"invalid multi-section: {tms.report}")


def _parity_detail(tms, n_value):
    res = builder.checked_realizability(tms)
    return {"N": n_value, "parity_ok": res.parity_ok,
            "realizable": res.realizable, "betti_one": res.betti_one}


def cmd_build(spec, report, outdir):
    net, layout = _pipeline(spec, report)
    outdir.mkdir(parents=True, exist_ok=True)
    net_path = outdir / "network.json"
    svg_path = outdir / "network.svg"
    schema.dump_json(schema.emit_network(net), net_path)
    svg_path.write_text(render_svg(spec.disk, net, layout))
    report["artifacts"] += [str(net_path), str(svg_path)]
    return net, layout


def _chosen_holonomies(spec, report, holonomy_arg, b1):
    """The holonomies of ``nonabelianize``: ``--holonomy``, else the
    document's, else all 1; parsed and checked against b1."""
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
    _holonomies(report, b1, hol)
    return hol


def cmd_nonabelianize(spec, report, outdir, holonomy_arg):
    # the holonomies are decided once b1 is known, before the build; a
    # multi-section with no realizable network fails the build first
    b1 = _betti_one(_checked(spec, report))
    hol = None if b1 is None else \
        _chosen_holonomies(spec, report, holonomy_arg, b1)
    net, layout = _build(spec, report)
    cover = layout.cover(spec.tms.degree)
    # make_local_system checks hol once more, as it checks every caller's:
    # against betti_one(cover), which equals the b1 the holonomies stage
    # read (#cuts - 1 = N - 3, a theorem test_builder.py pins), so this
    # check passes whenever that stage did
    ls = make_local_system(cover, hol)
    report["holonomies"] = [str(h) for h in hol]
    coc = _stage(report, "nonabelianize",
                 lambda: nonabelian.kaneyama_cocycle(net, spec.tms, cover, ls))
    _stage(report, "verify_bundle",
           lambda: nonabelian.verify_bundle(coc, spec.tms))
    outdir.mkdir(parents=True, exist_ok=True)
    coc_path = outdir / "cocycle.json"
    schema.dump_json(schema.emit_cocycle(coc), coc_path)
    report["artifacts"].append(str(coc_path))
    return coc


def cmd_verify(spec, report, seed, count=25):
    net, layout = _pipeline(spec, report)
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
        # b1 draws from 1/9..9 are nonzero rationals by construction, so
        # the universal cocycle is evaluated there with no system built
        coc = universal.evaluated(random_holonomies())
        rep = nonabelian.verify_bundle(coc, spec.tms)
        if not rep.ok:
            raise ToricNetsError(f"bundle verification failed: {rep}")
        return "ok"

    _stage(report, "kaneyama", cocycle_checks)
    return report


def cmd_render(spec, report, out_path):
    def draw():
        # the polygon is built here, so a bad support fails this stage; so
        # does an embedded layout whose cover the multi-section's degree
        # rejects, as validate's network stage rejects it, and a
        # multi-section the builder cannot realize, as build fails it
        disk, net = spec.disk, spec.network
        if net is not None and spec.tms is not None:
            net.layout.cover(spec.tms.degree)
        elif spec.tms is not None:
            net, _ = builder.build_network(spec.tms, disk)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(
            render_svg(disk, net, None if net is None else net.layout))
        return str(out_path)

    _stage(report, "render", draw)
    report["artifacts"].append(str(out_path))


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
        # an error a stage raised failed that stage already
        if not report["stages"] or report["stages"][-1]["status"] == "pass":
            _stage(report, "error", lambda: exc)
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
