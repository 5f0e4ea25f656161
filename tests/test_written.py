"""The written form of a Kaneyama cocycle: the ``cocycle.json`` term lists.

``KaneyamaCocycle.written`` writes each G_ij = D_j P_ij D_i^-1 once, from
its constant and the frames, and ``verify_bundle`` certifies exactly those
lists.  The checks hold the lists to the Laurent form of the reference
kernel (``support.laurent_form`` written by ``support.emit_matrix``), show
that ``schema.emit_cocycle`` writes the lists ``verify_bundle`` read, and
edit single terms of the lists, with no Laurent matrix involved, to reach
every non-canonical kind the verifier reports.
"""
import json
import random
from fractions import Fraction

import pytest

from support import (GEN_TOOLKIT, REALIZABLE, emit_matrix, generated_problems,
                     laurent_form, load, perfbench_gen)

from toricnets import nonabelian, schema
from toricnets.builder import build_network
from toricnets.cover import betti_one, build_cover, make_local_system
from toricnets.laurent import TPoly, constant
from toricnets.nonabelian import (KaneyamaCocycle, kaneyama_cocycle,
                                  verify_bundle)
from toricnets.reporting import ValidationReport, Violation


def _cocycles():
    """(label, spec, cover, cocycle) of every realizable fixture and of
    the generated problems up to (12, 12), on seeded rational holonomies."""
    specs = [(name, load(name)) for name in REALIZABLE]
    specs += [(f"generated {shape}", spec)
              for shape, spec in generated_problems("written", 11, 3)]
    rng = random.Random(18)
    for label, spec in specs:
        net, layout = build_network(spec.tms, spec.disk)
        cover = build_cover(spec.disk, layout, spec.tms.degree)
        hol = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
               for _ in range(betti_one(cover))]
        yield label, spec, cover, kaneyama_cocycle(
            net, spec.tms, cover, make_local_system(cover, hol))


class _Reads(dict):
    """A dict that records every value read by key."""

    def __init__(self, items):
        super().__init__(items)
        self.read = []

    def __getitem__(self, key):
        value = super().__getitem__(key)
        self.read.append((key, value))
        return value


def test_written_terms_match_reference():
    labels, fractional = [], 0
    for label, spec, cover, coc in _cocycles():
        n = spec.fan.n
        assert list(coc.written) == [(i, j) for i in range(n)
                                     for j in range(n)], label
        for (i, j), terms in coc.written.items():
            want = emit_matrix(laurent_form(coc.constants[(i, j)], i, j,
                                            spec.tms, cover))
            assert terms == want, (label, i, j)
            assert type(terms) is tuple and all(type(t) is tuple
                                                for t in terms)
            fractional += sum(t[3] != 1 for t in terms)
        # emit_cocycle writes the very lists verify_bundle factored
        coc.written = _Reads(coc.written)
        assert verify_bundle(coc, spec.tms).ok, label
        pairs = schema.emit_cocycle(coc)["pairs"]
        read = [key for key, _ in coc.written.read]
        assert sorted(read) == list(coc.written) and len(read) == n * n
        for (i, j), terms in coc.written.read:
            assert pairs[f"{i},{j}"] is terms
        labels.append(label)
    assert len(labels) == len(REALIZABLE) + 4
    # the seeded holonomies put written coefficients over denominators > 1
    assert fractional > 0


def test_symbolic_written_terms_are_certified(fan7, fan7_built):
    # the universal cocycle writes its TPoly coefficients over 1, and
    # verify_bundle certifies those terms as they are
    net, layout, cover = fan7_built
    coc = kaneyama_cocycle(net, fan7.tms, cover, make_local_system(
        cover, TPoly.symbols(betti_one(cover))))
    symbolic = [t for terms in coc.written.values() for t in terms
                if isinstance(t[2], TPoly)]
    assert len(symbolic) > 0 and all(t[3] == 1 for t in symbolic)
    assert verify_bundle(coc, fan7.tms).ok


@pytest.fixture(scope="module")
def fan5_cocycle(fan5, fan5_built):
    """The fan5_n5 cocycle at holonomies (2/3, 2/3): its G_01 is written
    (0,0,1,1,-2,0), (1,0,-2,3,1,1), (1,1,1,1,2,0)."""
    net, layout, cover = fan5_built
    coc = kaneyama_cocycle(net, fan5.tms, cover,
                           make_local_system(cover, [Fraction(2, 3)] * 2))
    assert coc.written[(0, 1)] == ((0, 0, 1, 1, -2, 0), (1, 0, -2, 3, 1, 1),
                                   (1, 1, 1, 1, 2, 0))
    return coc


def _edited(coc, terms):
    """A copy of the cocycle whose written G_01 is ``terms``."""
    out = KaneyamaCocycle(coc.tms, coc.cover, coc.steps, coc.lift)
    out.written = {**coc.written, (0, 1): tuple(terms)}
    return out


def _report(coc, tms, terms):
    return verify_bundle(_edited(coc, terms), tms).violations


def test_one_written_term_off_its_frame_names_its_witness(fan5, fan5_cocycle):
    a, b, c = fan5_cocycle.written[(0, 1)]
    moved = b[:4] + (b[4] + 1, b[5])
    assert _report(fan5_cocycle, fan5.tms, [a, moved, c]) == [
        Violation("tropicalization",
                  "G_(0,1) entry (1,0) has exponents [(2, 1)], not the "
                  "frame exponent (1, 1)", (0, 1, 1, 0))]


def test_an_entry_of_several_terms_reports_its_exponents_sorted(
        fan5, fan5_cocycle):
    # the extra term is written first, at a larger exponent
    a, b, c = fan5_cocycle.written[(0, 1)]
    extra = (1, 0, 5, 1, 3, 0)
    assert _report(fan5_cocycle, fan5.tms, [a, extra, b, c]) == [
        Violation("tropicalization",
                  "G_(0,1) entry (1,0) has exponents [(1, 1), (3, 0)], not "
                  "the frame exponent (1, 1)", (0, 1, 1, 0))]


@pytest.mark.parametrize("kind", [
    "twice", "order", "row", "col", "zero", "unreduced", "negative_den",
    "zero_den", "bool_exponent", "float_exponent"])
def test_non_canonical_written_terms_are_reported(fan5, fan5_cocycle, kind):
    # each kind edits one term of the written G_01; the term is reported
    # under its (i, j, row, col) and left out, and nothing raises
    a, b, c = fan5_cocycle.written[(0, 1)]
    coefficient = ("has coefficient {}, not a reduced nonzero fraction over "
                   "a positive denominator")
    terms, witness, what = {
        "twice": ([a, b, b, c], (1, 0),
                  "entry (1,0) names the exponent (1, 1) twice"),
        "order": ([b, a, c], (0, 0),
                  "writes entry (0,0) after entry (1,0), out of (row, col) "
                  "order"),
        "row": ([a, b, (2,) + c[1:]], (2, 1),
                "names entry (2,1) outside the 2 x 2 matrix"),
        "col": ([a, b[:1] + (-1,) + b[2:], c], (1, -1),
                "names entry (1,-1) outside the 2 x 2 matrix"),
        "zero": ([a, b[:2] + (0, 3) + b[4:], c], (1, 0),
                 "entry (1,0) " + coefficient.format("0/3")),
        "unreduced": ([a, b[:2] + (-4, 6) + b[4:], c], (1, 0),
                      "entry (1,0) " + coefficient.format("-4/6")),
        "negative_den": ([a, b[:2] + (2, -3) + b[4:], c], (1, 0),
                         "entry (1,0) " + coefficient.format("2/-3")),
        "zero_den": ([a, b[:2] + (-2, 0) + b[4:], c], (1, 0),
                     "entry (1,0) " + coefficient.format("-2/0")),
        # True and 1.0 equal the frame exponent's 1, but are not ints, and
        # cocycle.json would write them as true and 1.0
        "bool_exponent": ([a, b[:4] + (True, 1), c], (1, 0),
                          "entry (1,0) has exponent (True, 1), not a pair "
                          "of ints"),
        "float_exponent": ([a, b[:5] + (1.0,), c], (1, 0),
                           "entry (1,0) has exponent (1, 1.0), not a pair "
                           "of ints"),
    }[kind]
    assert _report(fan5_cocycle, fan5.tms, terms) == [
        Violation("tropicalization", f"G_(0,1) {what}", (0, 1) + witness)]


def test_a_symbolic_term_over_true_is_not_canonical(fan5, fan5_built):
    # True equals 1, but a TPoly coefficient is written over the int 1:
    # the term is reported under its witness, not certified
    net, layout, cover = fan5_built
    coc = kaneyama_cocycle(net, fan5.tms, cover, make_local_system(
        cover, TPoly.symbols(betti_one(cover))))
    assert verify_bundle(coc, fan5.tms).ok
    (i, j), terms = next((key, terms) for key, terms in coc.written.items()
                         if any(isinstance(t[2], TPoly) for t in terms))
    k = next(k for k, t in enumerate(terms) if isinstance(t[2], TPoly))
    row, col, num, den, ex, ey = terms[k]
    edited = KaneyamaCocycle(coc.tms, coc.cover, coc.steps, coc.lift)
    edited.written = {**coc.written, (i, j): terms[:k] + (
        (row, col, num, True, ex, ey),) + terms[k + 1:]}
    assert verify_bundle(edited, fan5.tms).violations == [
        Violation("tropicalization",
                  f"G_({i},{j}) entry ({row},{col}) has coefficient "
                  f"{num!r}/True, not a reduced nonzero fraction over a "
                  "positive denominator", (i, j, row, col))]


def test_a_symbolic_pair_over_a_denominator_is_read_canonically(fan5,
                                                                fan5_built):
    # the symbolic G_01 of fan5_n5 with its (0, 0) coefficient written as
    # 1/2: a pair with a TPoly term and a term over a denominator other
    # than 1 is collected over that denominator, which a symbolic
    # constant never has, so the pair is brought to canonical form
    # before it is labelled.  The label names that constant, and the
    # checks read it: det 1/2 is a unit, so only the inverses and the
    # cocycle condition fail
    net, layout, cover = fan5_built
    t1, t2 = TPoly.symbols(betti_one(cover))
    coc = kaneyama_cocycle(net, fan5.tms, cover,
                           make_local_system(cover, [t1, t2]))
    first, *rest = coc.written[(0, 1)]
    assert first[:4] == (0, 0, 1, 1)
    edited = KaneyamaCocycle(coc.tms, coc.cover, coc.steps, coc.lift)
    edited.written = {**coc.written,
                      (0, 1): ((0, 0, 1, 2, *first[4:]), *rest)}
    report = ValidationReport()
    labels, index = nonabelian._factored(edited, report)
    got = list(index)[labels[1]]
    want = constant([[Fraction(1, 2), 0], [-t2, 1]])
    assert report.ok and got == want
    assert [type(x) for x in got] == [type(x) for x in want]
    violations = verify_bundle(edited, fan5.tms).violations
    assert Violation("inverses", "G_(0,1) G_(1,0) != Id", (0, 1)) in \
        violations
    assert {v.condition for v in violations} == {"inverses", "cocycle"}


def _read_back(coc, text):
    """A copy of the cocycle whose ``written`` is ``text``, the bytes of
    its cocycle.json, read back: lists, not tuples, in the file's key
    order, with the "i,j" keys mapped back to (i, j)."""
    out = KaneyamaCocycle(coc.tms, coc.cover, coc.steps, coc.lift)
    out.written = {tuple(map(int, key.split(","))): terms
                   for key, terms in json.loads(text)["pairs"].items()}
    return out


def test_a_cocycle_read_back_from_its_bytes_reports_the_same(tmp_path):
    # verify_bundle certifies the terms by value: the lists cocycle.json
    # reads back as, which share no term object and come in the file's
    # key order, give the report of the written tuples, clean, with one
    # coefficient edited on its frame, and with one edited off its frame
    rng = random.Random(33)
    gen = perfbench_gen()
    specs = [(name, load(name)) for name in REALIZABLE]
    specs.append(("generated (20, 4)", schema.parse_problem(json.loads(
        gen.serialize(gen.generate(20, 4, "read back", GEN_TOOLKIT))))))
    for label, spec in specs:
        net, layout = build_network(spec.tms, spec.disk)
        cover = build_cover(spec.disk, layout, spec.tms.degree)
        coc = kaneyama_cocycle(net, spec.tms, cover, make_local_system(
            cover, [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                    for _ in range(betti_one(cover))]))
        text = schema.dump_json(schema.emit_cocycle(coc),
                                tmp_path / "cocycle.json")
        assert verify_bundle(_read_back(coc, text), spec.tms) == \
            verify_bundle(coc, spec.tms) and verify_bundle(coc, spec.tms).ok
        n = spec.fan.n
        i, j = rng.choice([(i, j) for i in range(n) for j in range(n)
                           if i != j])
        terms = coc.written[(i, j)]
        k = rng.randrange(len(terms))
        row, col, num, den, ex, ey = terms[k]
        c = Fraction(num, den) + rng.choice([-2, -1, 1, 2]) or Fraction(3)
        for moved, condition in [(0, "inverses"), (1, "tropicalization")]:
            edit = (row, col, c.numerator, c.denominator, ex + moved, ey)
            want = KaneyamaCocycle(coc.tms, coc.cover, coc.steps, coc.lift)
            want.written = {**coc.written,
                            (i, j): terms[:k] + (edit,) + terms[k + 1:]}
            got = _read_back(coc, text)
            assert type(got.written[(i, j)][k]) is list
            got.written[(i, j)][k] = list(edit)
            report = verify_bundle(got, spec.tms)
            assert report == verify_bundle(want, spec.tms), (label, moved)
            assert condition in {v.condition for v in report.violations}
        if n > 10:
            # "1,0" < "10,0" < "2,0": the file's order is not (i, j) order
            assert list(got.written) != list(coc.written)
