"""The loop identities proved once, with symbolic holonomies.

``toricnets verify`` runs ``loop_identity_check`` once, for the local
system whose cut weights are 1, t_1, ..., t_b1, and so proves each loop
identity in Q[z^±, t^±].  The tests here hold that proof to the sampled
sweep it replaced (``support.reference_sweep``), make sure a wrong sign
or factor fails it, and make sure the coefficient ring does not lose t:
the cocycle of the symbolic system, its steps evaluated at rational
holonomies, equals the cocycle built from those holonomies directly.  The
boundary loop the check decides from those steps is the steps
concatenated.  The determinant oracle of the cocycle runs on the same
instances.
"""
import json
import random
from fractions import Fraction

import pytest

from support import (FIXTURES, REALIZABLE, generated_problems, load,
                     reference_loop_identity_check, reference_sweep)

from toricnets import nonabelian, schema
from toricnets.builder import build_network
from toricnets.cli import main
from toricnets.cover import betti_one, build_cover, make_local_system
from toricnets.errors import (InvariantViolated, LoopIdentityFailed,
                              ToricNetsError)
from toricnets.laurent import LaurentMatrix, LaurentPoly, TPoly
from toricnets.network import (Soliton, boundary_loop, enumerate_solitons,
                               track_path)
from toricnets.nonabelian import (Factors, cut_factor, kaneyama_cocycle,
                                  loop_identity_check)


@pytest.fixture(scope="module")
def instances():
    """(label, spec, net, cover) of every realizable fixture and of the
    generated problems up to (12, 12)."""
    specs = [(name, load(name)) for name in REALIZABLE]
    specs += [(f"generated {shape}", spec)
              for shape, spec in generated_problems("symbolic", 7, 4)]
    out = []
    for label, spec in specs:
        net, layout = build_network(spec.tms, spec.disk)
        out.append((label, spec, net,
                    build_cover(spec.disk, layout, spec.tms.degree)))
    return out


def symbolic_system(cover):
    return make_local_system(cover, TPoly.symbols(betti_one(cover)))


def doubled_spoke(monkeypatch, spoke):
    """Make every factor of one spoke twice what it should be."""
    true_factor = nonabelian.semiflat_factor

    def doubled(ray, factors):
        m = true_factor(ray, factors)
        if ray % factors.tms.fan.n != spoke:
            return m
        return LaurentMatrix([[p * 2 for p in row] for row in m.rows])

    monkeypatch.setattr(nonabelian, "semiflat_factor", doubled)


def flipped_sign(monkeypatch, wall_id):
    """Flip the winding sign of the soliton on one wall."""
    def flipped(net_, w):
        sols = enumerate_solitons(net_, w)
        if w.id == wall_id:
            sols = [Soliton(s.wall_id, s.source_sheet, s.target_sheet,
                            s.branch_point, s.cut_index, s.turns + 1)
                    for s in sols]
        return sols

    monkeypatch.setattr(nonabelian, "enumerate_solitons", flipped)


def true_cut_factors(monkeypatch, cuts):
    """Make every cut factor the one in ``cuts``, whatever the walls say."""
    monkeypatch.setattr(nonabelian, "cut_factor", lambda k, _: cuts[k])


def symbolic_table(spec, net, cover):
    return Factors(net, spec.tms, cover, symbolic_system(cover))


def test_symbolic_check_matches_sampled_sweep(instances, monkeypatch):
    for seed, (label, spec, net, cover) in enumerate(instances):
        symbolic = loop_identity_check(symbolic_table(spec, net, cover))
        assert bool(symbolic) == reference_sweep(net, spec.tms, cover, seed)
        assert symbolic, label
    with monkeypatch.context() as m:
        doubled_spoke(m, 0)
        for seed, (label, spec, net, cover) in enumerate(instances[:5]):
            symbolic = loop_identity_check(symbolic_table(spec, net, cover))
            assert not symbolic and not reference_sweep(net, spec.tms, cover,
                                                        seed)
            assert symbolic.violations[0].witness[0] == "boundary"


def _loop_outcome(check, net, tms, cover, ls):
    """Violations of a loop check, or the type and message it raised."""
    try:
        return check(Factors(net, tms, cover, ls)).violations
    except ToricNetsError as exc:
        return type(exc), str(exc)


def test_one_boundary_loop_decides_like_every_base(instances, monkeypatch):
    # the boundary loop from cone 0 alone must report exactly what the
    # boundary loops from every cone report, errors included, for the
    # symbolic and a seeded numeric system, with a doubled spoke 0, a
    # doubled spoke k != 0, and one flipped soliton sign (with the cut
    # factors built from the true signs, and without)
    rng = random.Random(2027)
    seen = set()
    for label, spec, net, cover in instances:
        tms = spec.tms
        hol = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
               for _ in range(betti_one(cover))]
        spoke = rng.randrange(1, spec.fan.n)
        for ls in (symbolic_system(cover), make_local_system(cover, hol)):
            table = Factors(net, tms, cover, ls)
            cuts = [cut_factor(k, table) for k in range(len(cover.cuts))]
            mutations = [(lambda m: None, False),
                         (lambda m: doubled_spoke(m, 0), False),
                         (lambda m: doubled_spoke(m, spoke), True)]
            if net.walls:
                wall = rng.choice(net.walls).id
                flip = lambda m: flipped_sign(m, wall)  # noqa: E731
                mutations += [(flip, False), (flip, True)]
            for mutate, keep_true_cuts in mutations:
                with monkeypatch.context() as m:
                    mutate(m)
                    if keep_true_cuts:
                        true_cut_factors(m, cuts)
                    got = _loop_outcome(loop_identity_check, net, tms, cover,
                                        ls)
                    want = _loop_outcome(reference_loop_identity_check, net,
                                         tms, cover, ls)
                assert got == want, label
                if isinstance(got, tuple):
                    seen.add(got[0])
                else:
                    seen.add(got[0].witness[0] if got else "pass")
    # every kind of outcome was compared
    assert seen == {"pass", "branch", "boundary", InvariantViolated}


@pytest.mark.parametrize("name", ["p2_n3", "p1p1_n4", "fan5_n5", "fan7_n7"])
def test_flipped_soliton_sign_fails_symbolic_check(name, monkeypatch):
    spec = load(name)
    net, layout = build_network(spec.tms, spec.disk)
    cover = build_cover(spec.disk, layout, 2)
    table = symbolic_table(spec, net, cover)
    # the cut factors are built from the true signs, as in
    # test_flipped_sign_breaks_loop_identity
    cuts = [cut_factor(k, table) for k in range(len(cover.cuts))]
    assert loop_identity_check(table)

    flipped_sign(monkeypatch, 0)
    true_cut_factors(monkeypatch, cuts)
    report = loop_identity_check(symbolic_table(spec, net, cover))
    assert not report
    assert report.violations[0].message.endswith("is not the identity")


def _holonomies(rng, b1):
    return [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
            for _ in range(b1)]


def _term_count(m):
    return sum(len(p.terms) for row in m.rows for p in row)


def test_symbolic_steps_evaluate_to_numeric_steps(instances):
    # the universal cocycle, built on the symbolic system, evaluated at
    # rational holonomies is the cocycle built from those holonomies
    # directly: equal steps, equal matrices entry for entry, equal
    # cocycle.json bytes.  b1 = 0 (p2_n3 and the rank-1 fixture) is among
    # the instances, and on fan7_n7 the coefficient 1 + t_3 t_4^-1 of
    # G_02 vanishes at (1, 1, 1, -1)
    rng = random.Random(5)
    symbolic_entries = 0
    for label, spec, net, cover in instances:
        b1 = betti_one(cover)
        universal = kaneyama_cocycle(net, spec.tms, cover,
                                     symbolic_system(cover))
        symbolic_entries += sum(isinstance(c, TPoly) for m in universal.steps
                                for row in m.rows for p in row
                                for c in p.terms.values())
        choices = [_holonomies(rng, b1) for _ in range(3)]
        if label == "fan7_n7":
            choices.append([Fraction(h) for h in (1, 1, 1, -1)])
        for hol in choices:
            got = universal.evaluated(hol)
            want = kaneyama_cocycle(net, spec.tms, cover,
                                    make_local_system(cover, hol))
            assert got.steps == want.steps, (label, hol)
            assert got.matrices == want.matrices, (label, hol)
            assert got.lift == want.lift
            assert json.dumps(schema.emit_cocycle(got), sort_keys=True) == \
                json.dumps(schema.emit_cocycle(want), sort_keys=True)
        if label == "fan7_n7":
            degenerate = universal.evaluated(choices[-1]).pair(0, 2)
            generic = universal.evaluated([Fraction(2)] * b1).pair(0, 2)
            assert _term_count(degenerate) < _term_count(generic)
    assert {betti_one(cover) for *_, cover in instances} >= {0, 1, 2, 4}
    # the comparison means something only if t survives into the steps
    assert symbolic_entries > 0


def flipped_track_sign(monkeypatch, wall_id):
    """Flip the soliton sign of one wall where the boundary track crosses
    it, away from its cut, so the branch-point loops still close."""
    true_factor = nonabelian.wall_factor

    def flipped(wall, region, factors):
        m = true_factor(wall, region, factors)
        if wall.id != wall_id or \
                region == factors.cover.cut_region[wall.start_branch]:
            return m
        a, b = wall.label
        return m.with_entry(b, a, -m.entry(b, a))

    monkeypatch.setattr(nonabelian, "wall_factor", flipped)


@pytest.mark.parametrize("name", ["p2_n3", "p1p1_n4", "fan5_n5", "fan7_n7"])
def test_flipped_soliton_sign_fails_both_gates(name, monkeypatch, capsys,
                                              tmp_path):
    # the numeric gate of nonabelianize and the symbolic one of verify
    # each fail, and each names the loop
    spec = load(name)
    net, layout = build_network(spec.tms, spec.disk)
    cover = layout.cover(2)
    wall = next(w for w in net.walls
                if w.end_cone != cover.cut_region[w.start_branch])
    flipped_track_sign(monkeypatch, wall.id)
    loop = "boundary loop from cone 0 is not the identity"
    with pytest.raises(LoopIdentityFailed, match=f"^{loop}$"):
        kaneyama_cocycle(net, spec.tms, cover, make_local_system(
            cover, [Fraction(2)] * betti_one(cover)))
    names = ", ".join(f"t_{k}" for k in range(1, betti_one(cover) + 1))
    for command, stage, detail in [
            ("nonabelianize", "nonabelianize", loop),
            ("verify", "loop_identities",
             f"{loop} with symbolic holonomies [{names}]")]:
        code = main([command, "--input", str(FIXTURES / f"{name}.json"),
                     "--out", str(tmp_path),
                     "--report", "json"])
        last = json.loads(capsys.readouterr().out)["stages"][-1]
        assert code == 1
        assert (last["name"], last["status"], last["detail"]) == \
            (stage, "fail", detail)


def test_boundary_loop_is_the_steps_concatenated(instances):
    for label, spec, net, cover in instances:
        n = spec.fan.n
        loop = boundary_loop(net, 0, ccw=True)
        steps = [track_path(net, i, (i + 1) % n) for i in range(n)]
        assert (loop.start_region, loop.start_sheet) == \
            (steps[0].start_region, steps[0].start_sheet) == (0, 0)
        assert loop.crossings == [c for p in steps for c in p.crossings], \
            label
        assert all(p.crossings for p in steps)


def test_a_step_missing_a_crossing_is_an_invariant_violation(instances,
                                                             monkeypatch):
    true_path = nonabelian.track_path
    for label, spec, net, cover in instances[:4]:
        for k in {0, spec.fan.n - 1}:
            def short(net_, i, j, ccw=True, k=k):
                path = true_path(net_, i, j, ccw)
                if i == k:
                    path.crossings = path.crossings[:-1]
                return path

            with monkeypatch.context() as m:
                m.setattr(nonabelian, "track_path", short)
                with pytest.raises(InvariantViolated, match="concatenated"):
                    loop_identity_check(symbolic_table(spec, net, cover))


def test_verify_proves_the_loops_once(monkeypatch, capsys):
    calls = []
    true_check = nonabelian.loop_identity_check

    def counted(factors):
        calls.append([type(w) for w in factors.ls.cut_weights])
        return true_check(factors)

    monkeypatch.setattr(nonabelian, "loop_identity_check", counted)
    assert main(["verify", "--input", str(FIXTURES / "fan5_n5.json")]) == 0
    # one symbolic check, inside the universal cocycle of the sweep; the
    # seeded cocycle evaluates its steps and checks no loop again
    assert calls == [[Fraction, TPoly, TPoly]]


def test_verify_names_the_failing_symbolic_loop(monkeypatch, capsys):
    doubled_spoke(monkeypatch, 0)
    code = main(["verify", "--input", str(FIXTURES / "p1p1_n4.json"),
                 "--report", "json"])
    stage = json.loads(capsys.readouterr().out)["stages"][-1]
    assert code == 1
    assert (stage["name"], stage["status"]) == ("loop_identities", "fail")
    assert stage["detail"].startswith("boundary loop from cone ")
    assert stage["detail"].endswith(
        "is not the identity with symbolic holonomies [t_1]")


# -- determinant oracle ---------------------------------------------------------

def _holonomy_choices(spec, cover):
    b1 = betti_one(cover)
    return [list(spec.holonomies) or [Fraction(1)] * b1, [Fraction(5, 3)] * b1]


def test_determinant_oracle(instances):
    # det G_ij = z^(sum m(j) - sum m(i)) with coefficient exactly 1, where
    # sum m(i) adds the lifted slopes over cone i: read from tms and the
    # lift map only, never from the network
    for label, spec, net, cover in instances:
        tms = spec.tms
        for hol in _holonomy_choices(spec, cover):
            coc = kaneyama_cocycle(net, tms, cover,
                                   make_local_system(cover, hol))
            total = {i: [sum(tms.slope(coc.lift[(i, s)])[k]
                             for s in range(cover.r)) for k in (0, 1)]
                     for i in range(tms.fan.n)}
            for (i, j), g in coc.matrices.items():
                want = LaurentPoly.monomial(
                    1, (total[j][0] - total[i][0], total[j][1] - total[i][1]))
                assert g.det() == want, (label, hol, i, j)
