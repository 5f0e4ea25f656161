"""Records are immutable NamedTuples; objects with cached facts are plain.

Every record of the package is read-only, field by field, and keeps the
``Name(field=value, ...)`` repr that ``--report json`` witnesses print.
A ``BranchCutLayout`` keeps its three fields read-only too, under its
cached facts.  A ``ValidationReport`` compares by its violations and is
unhashable, and an evaluated cocycle starts with no cached fact of the
symbolic one.
"""
from fractions import Fraction

import pytest

from toricnets import builder
from toricnets.cover import Crossing, SurfacePath, betti_one, make_local_system
from toricnets.laurent import TPoly
from toricnets.multisection import parity_and_realizability
from toricnets.network import enumerate_solitons, track_path
from toricnets.nonabelian import kaneyama_cocycle
from toricnets.reporting import ValidationReport, Violation


@pytest.fixture(scope="module")
def records(p1p1, p1p1_built):
    net, layout, cover = p1p1_built
    tms = p1p1.tms
    path = track_path(net, 0, 1)
    return [Violation("structure", "a message", (0, 1)),
            tms.lifted_cones[0], tms.lifted_rays[0], tms.cover_class,
            parity_and_realizability(tms, 4), layout.cuts[0],
            path.crossings[0], path, net.walls[0], net.events[0][0],
            enumerate_solitons(net, net.walls[0])[0],
            builder._plan(tms, tms.crossing_cones)[0]]


def test_every_record_is_read_only_with_a_field_repr(records):
    names = set()
    for rec in records:
        names.add(type(rec).__name__)
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
        fields = ", ".join(f"{name}={getattr(rec, name)!r}"
                           for name in rec._fields)
        assert repr(rec) == f"{type(rec).__name__}({fields})"
    assert names == {"Violation", "LiftedCone", "LiftedRay", "CoverClass",
                     "RealizabilityResult", "Cut", "Crossing",
                     "SurfacePath", "Wall", "Soliton", "_YPlan"}
    assert repr(Violation("cocycle", "m", (0, 1))) == \
        "Violation(condition='cocycle', message='m', witness=(0, 1))"
    assert repr(SurfacePath(2, 1, [Crossing("cut", 0)])) == (
        "SurfacePath(start_region=2, start_sheet=1, crossings=[Crossing("
        "kind='cut', index=0)])")


def test_a_layout_keeps_its_fields_read_only_under_cached_facts(
        p1p1_built):
    _, layout, _ = p1p1_built
    assert layout.grid is layout.grid
    for name in ("disk", "cuts", "scale"):
        with pytest.raises(AttributeError):
            setattr(layout, name, None)
    assert repr(layout).startswith(
        f"BranchCutLayout(disk={layout.disk!r}, cuts=")
    moved = layout._replace(scale=2 * layout.scale)
    assert type(moved) is type(layout) and "grid" not in vars(moved)


def test_a_report_compares_by_its_violations_and_is_unhashable():
    assert ValidationReport() == ValidationReport()
    a, b = ValidationReport(), ValidationReport()
    a.add("cocycle", "m", (0, 1))
    assert a != b
    b.add("cocycle", "m", (0, 1))
    assert a == b
    with pytest.raises(TypeError):
        hash(ValidationReport())


def test_an_evaluated_cocycle_carries_no_cached_fact(p1p1, p1p1_built):
    net, _, cover = p1p1_built
    symbolic = kaneyama_cocycle(
        net, p1p1.tms, cover,
        make_local_system(cover, TPoly.symbols(betti_one(cover))))
    assert symbolic.constants and symbolic.written
    got = symbolic.evaluated([Fraction(2, 3)] * betti_one(cover))
    assert got is not symbolic
    assert (got.tms, got.cover, got.lift) == \
        (symbolic.tms, symbolic.cover, symbolic.lift)
    assert got.steps != symbolic.steps
    assert "constants" not in vars(got) and "written" not in vars(got)
