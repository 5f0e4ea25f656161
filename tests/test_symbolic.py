"""The loop identities proved once, with symbolic holonomies.

``toricnets verify`` runs ``loop_identity_check`` once, for the local
system whose cut weights are 1, t_1, ..., t_b1, and so proves each loop
identity in Q[z^±, t^±].  The tests here hold that proof to the sampled
sweep it replaced (``support.reference_sweep``), make sure a wrong sign
or factor fails it, and make sure the coefficient ring does not lose t:
every symbolic step product, evaluated at rational holonomies, equals the
product built from those holonomies directly.  The determinant oracle of
the cocycle runs on the same instances.
"""
import json
import random
from fractions import Fraction

import pytest

from support import (FIXTURES, REALIZABLE, evaluate, generated_problems,
                     load, reference_loop_identity_check, reference_sweep)

from toricnets import nonabelian
from toricnets.builder import build_network
from toricnets.cli import main
from toricnets.cover import (betti_one, build_cover, make_local_system,
                             sheet_lift_map)
from toricnets.errors import InvariantViolated, ToricNetsError
from toricnets.laurent import LaurentMatrix, LaurentPoly, TPoly
from toricnets.network import Soliton, enumerate_solitons, track_path
from toricnets.nonabelian import (cut_factor, kaneyama_cocycle,
                                  loop_identity_check, path_ordered)


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

    def doubled(ray, tms, cover, lift):
        m = true_factor(ray, tms, cover, lift)
        if ray % tms.fan.n != spoke:
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


def test_symbolic_check_matches_sampled_sweep(instances, monkeypatch):
    for seed, (label, spec, net, cover) in enumerate(instances):
        symbolic = loop_identity_check(net, spec.tms, cover,
                                       symbolic_system(cover),
                                       sheet_lift_map(spec.tms, cover), {})
        assert bool(symbolic) == reference_sweep(net, spec.tms, cover, seed)
        assert symbolic, label
    with monkeypatch.context() as m:
        doubled_spoke(m, 0)
        for seed, (label, spec, net, cover) in enumerate(instances[:5]):
            symbolic = loop_identity_check(net, spec.tms, cover,
                                           symbolic_system(cover),
                                           sheet_lift_map(spec.tms, cover),
                                           {})
            assert not symbolic and not reference_sweep(net, spec.tms, cover,
                                                        seed)
            assert symbolic.violations[0].witness[0] == "boundary"


def _loop_outcome(check, net, tms, cover, ls, lift, caches):
    """Violations of a loop check, or the type and message it raised."""
    try:
        return check(net, tms, cover, ls, lift, dict(caches)).violations
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
        tms, lift = spec.tms, sheet_lift_map(spec.tms, cover)
        hol = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
               for _ in range(betti_one(cover))]
        spoke = rng.randrange(1, spec.fan.n)
        for ls in (symbolic_system(cover), make_local_system(cover, hol)):
            true_cuts = {("cut", k): cut_factor(k, net, tms, cover, ls, lift)
                         for k in range(len(cover.cuts))}
            mutations = [(lambda m: None, {}),
                         (lambda m: doubled_spoke(m, 0), {}),
                         (lambda m: doubled_spoke(m, spoke), true_cuts)]
            if net.walls:
                wall = rng.choice(net.walls).id
                flip = lambda m: flipped_sign(m, wall)  # noqa: E731
                mutations += [(flip, {}), (flip, true_cuts)]
            for mutate, caches in mutations:
                with monkeypatch.context() as m:
                    mutate(m)
                    got = _loop_outcome(loop_identity_check, net, tms, cover,
                                        ls, lift, caches)
                    want = _loop_outcome(reference_loop_identity_check, net,
                                         tms, cover, ls, lift, caches)
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
    ls = symbolic_system(cover)
    lift = sheet_lift_map(spec.tms, cover)
    # the cut factors are built from the true signs, as in
    # test_flipped_sign_breaks_loop_identity
    caches = {("cut", k): cut_factor(k, net, spec.tms, cover, ls, lift)
              for k in range(len(cover.cuts))}
    assert loop_identity_check(net, spec.tms, cover, ls, lift, dict(caches))

    flipped_sign(monkeypatch, 0)
    report = loop_identity_check(net, spec.tms, cover, ls, lift, caches)
    assert not report
    assert report.violations[0].message.endswith("is not the identity")


def test_symbolic_steps_evaluate_to_numeric_steps(instances):
    rng = random.Random(5)
    symbolic_entries = 0
    for label, spec, net, cover in instances:
        b1 = betti_one(cover)
        lift = sheet_lift_map(spec.tms, cover)
        ls, caches = symbolic_system(cover), {}
        n = spec.fan.n
        steps = [path_ordered(net, spec.tms, cover, ls,
                              track_path(net, i, (i + 1) % n), lift, caches)
                 for i in range(n)]
        symbolic_entries += sum(isinstance(c, TPoly) for m in steps
                                for row in m.rows for p in row
                                for c in p.terms.values())
        for _ in range(5):
            hol = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                   for _ in range(b1)]
            numeric, num_caches = make_local_system(cover, hol), {}
            for i, step in enumerate(steps):
                want = path_ordered(net, spec.tms, cover, numeric,
                                    track_path(net, i, (i + 1) % n), lift,
                                    num_caches)
                assert evaluate(step, hol) == want, (label, i)
    # the comparison means something only if t survives into the steps
    assert symbolic_entries > 0


def test_verify_proves_the_loops_once(monkeypatch, capsys):
    calls = []
    true_check = nonabelian.loop_identity_check

    def counted(net, tms, cover, ls, **kwargs):
        calls.append([type(w) for w in ls.cut_weights])
        return true_check(net, tms, cover, ls, **kwargs)

    monkeypatch.setattr(nonabelian, "loop_identity_check", counted)
    assert main(["verify", "--input", str(FIXTURES / "fan5_n5.json")]) == 0
    # one symbolic check in the sweep, one numeric inside kaneyama_cocycle
    assert calls == [[Fraction, TPoly, TPoly], [Fraction] * 3]


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
