"""Complexity contracts on deterministic work counts.

Wall times drift from run to run; call counts do not.  On the benchmark's
generated (8, 8) and (16, 16) problems, whose constants P_ij are all
distinct, and on (16, 4), where few distinct constants fill the n^2
pairs, counted with ``support.count_calls``:

* one factor build per wall, cut and spoke crossed: the loop check
  builds the factor of each wall, cut and spoke that the adjacent steps
  and the branch-point loops cross once (``wall_factor``,
  ``cut_factor``, ``semiflat_factor``);
* a product table multiplies each pair of constants once: within the
  loop check, the composition of the constants P_ij and
  ``verify_bundle``, no two ``mat_mul`` calls take the same pair;
* a passing ``verify_bundle`` takes at most C(n, 2) + C(n - 1, 2)
  products: one per unordered pair and one per star triple;
* the counts are equal over two runs;
* the composition never multiplies by an identity step, and a passing
  ``verify_bundle`` takes det at most once per distinct P_{i-1,i}.
"""
import json
import random
from fractions import Fraction
from math import comb

import pytest

from support import GEN_TOOLKIT, count_calls, perfbench_gen

from toricnets import laurent, nonabelian, schema
from toricnets.builder import build_network
from toricnets.cover import betti_one, make_local_system
from toricnets.laurent import identity
from toricnets.nonabelian import (Factors, branch_point_loop,
                                  kaneyama_cocycle, verify_bundle)

BUILDS = {"wall": "wall_factor", "cut": "cut_factor",
          "spoke": "semiflat_factor"}


def _document(n, big_n):
    gen = perfbench_gen()
    return json.loads(gen.serialize(
        gen.generate(n, big_n, "contracts", GEN_TOOLKIT)))


def _counts(doc, monkeypatch):
    """Factor builds, the crossings they stand for and the products of one
    run of the pipeline on ``doc``, from the parse on."""
    spec = schema.parse_problem(doc)
    n = spec.fan.n
    net, layout = build_network(spec.tms, spec.disk)
    cover = layout.cover(spec.tms.degree)
    rng = random.Random(31)
    ls = make_local_system(cover, [Fraction(rng.randint(1, 9),
                                            rng.randint(1, 9))
                                   for _ in range(betti_one(cover))])
    builds = {kind: count_calls(monkeypatch, nonabelian, name)
              for kind, name in BUILDS.items()}
    products = count_calls(monkeypatch, laurent, "mat_mul")
    phases = {}
    coc = kaneyama_cocycle(net, spec.tms, cover, ls)
    phases["loop check"] = products[:]
    del products[:]
    coc.constants
    phases["composition"] = products[:]
    del products[:]
    assert verify_bundle(coc, spec.tms).ok
    phases["verify_bundle"] = products[:]
    monkeypatch.undo()
    # what the loop check crosses: the adjacent steps, then each
    # branch point's loop
    factors = Factors(net, spec.tms, cover, ls)
    crossings = [c for path in factors.step_paths for c in path.crossings]
    crossings += [c for b in range(len(cover.cuts))
                  for c in branch_point_loop(net, cover, b).crossings]
    crossed = {kind: {c.index % n if kind == "spoke" else c.index
                      for c in crossings if c.kind == kind}
               for kind in BUILDS}
    return n, builds, crossed, phases


@pytest.mark.parametrize("shape", [(8, 8), (16, 16), (16, 4)])
def test_work_counts_meet_their_contracts(shape, monkeypatch):
    doc = _document(*shape)
    runs = []
    for _ in range(2):
        n, builds, crossed, phases = _counts(doc, monkeypatch)
        for kind in BUILDS:
            assert len(builds[kind]) == len(crossed[kind]) > 0, kind
        for phase, calls in phases.items():
            assert len(set(calls)) == len(calls), phase
        assert len(phases["verify_bundle"]) <= comb(n, 2) + comb(n - 1, 2)
        runs.append(({kind: len(c) for kind, c in builds.items()},
                     {phase: len(c) for phase, c in phases.items()}))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("shape", [(8, 8), (16, 16), (16, 4)])
def test_identity_steps_and_determinants_are_not_repeated(shape,
                                                          monkeypatch):
    # across an identity step the composition keeps its running product,
    # with no product call, and the certificate decides whether det P is
    # a unit once per distinct constant P_{i-1,i}
    spec = schema.parse_problem(_document(*shape))
    n = spec.fan.n
    net, layout = build_network(spec.tms, spec.disk)
    cover = layout.cover(spec.tms.degree)
    rng = random.Random(31)
    coc = kaneyama_cocycle(net, spec.tms, cover, make_local_system(
        cover, [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                for _ in range(betti_one(cover))]))
    one = identity(cover.r)
    # only the few walls of (16, 4) leave bare spokes between them
    assert (one in coc.steps) == (shape == (16, 4))
    products = count_calls(monkeypatch, nonabelian, "_product")
    coc.constants
    assert products and all(step != one for step, _ in products)
    monkeypatch.undo()
    dets = count_calls(monkeypatch, nonabelian, "det")
    assert verify_bundle(coc, spec.tms).ok
    overlaps = {coc.constants[((i - 1) % n, i)] for i in range(n)}
    assert 0 < len(dets) <= len(overlaps)
