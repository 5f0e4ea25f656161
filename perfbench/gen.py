"""Deterministic generator of realizable toricnets problems.

Every problem is a ``toricnets/problem.v1`` document built from three
choices:

* the fan: balanced blow-ups of the projective plane.  Starting from the
  rays (1,0), (0,1), (-1,-1), insert v_i + v_{i+1} between the adjacent
  pair whose sum is shortest (first such pair on ties) until there are n
  rays.  Blow-ups keep every cone unimodular, so the fan stays smooth.
* the support function: phi_i = -ceil(K * |v_i|) with the smallest
  positive integer K that ``fans.dual_polytope`` accepts as strictly
  convex.
* the multi-section: integer values on the lifted rays whose sheet
  difference has exactly N cyclic sign changes.  Odd N uses the connected
  cover (case O, one sheet swap across ray 0), even N the split cover
  (case E).  Because every cone is unimodular, the slope of a lifted cone
  is the integral solution of <m, v_i> = value at ray i and
  <m, v_{i+1}> = value at ray i+1, which makes the section continuous by
  construction; the difference is never zero, which makes it separated.

The positions of the sign changes depend only on (n, N), spread as evenly
as the fan allows, so the network geometry and the cost of an instance do
not depend on the seed.  The seed chooses the magnitudes of the ray values
and the holonomies of the local system.

Each generated problem is checked before it is returned: the
multi-section validates, ``n_genericity`` returns N, and the cover class
matches the parity of N.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from math import isqrt

PROBLEM_SCHEMA = "toricnets/problem.v1"
BASE_RAYS = [(1, 0), (0, 1), (-1, -1)]
MAX_K = 64


class GenerationError(RuntimeError):
    """A generated problem failed its own consistency check."""


def blowup_fan(n):
    """Rays of the balanced n-ray blow-up of the projective plane."""
    if n < 3:
        raise GenerationError(f"a complete fan needs 3 rays, asked for {n}")
    rays = list(BASE_RAYS)
    while len(rays) < n:
        best = None
        for i in range(len(rays)):
            a, b = rays[i], rays[(i + 1) % len(rays)]
            s = (a[0] + b[0], a[1] + b[1])
            norm = s[0] * s[0] + s[1] * s[1]
            if best is None or norm < best[0]:
                best = (norm, i, s)
        _, i, s = best
        rays.insert(i + 1, s)
    return rays


def _ceil_k_norm(k, v):
    """ceil(k * |v|), computed exactly."""
    t = k * k * (v[0] * v[0] + v[1] * v[1])
    c = isqrt(t)
    return c if c * c == t else c + 1


def support_values(rays, tk):
    """Smallest-K support -ceil(K|v|) that gives a strictly convex polygon."""
    fan = tk.fans.make_fan(rays)
    for k in range(1, MAX_K + 1):
        values = [-_ceil_k_norm(k, v) for v in rays]
        try:
            tk.fans.dual_polytope(fan, tk.fans.SupportFunction(fan, values))
        except tk.errors.NotStrictlyConvex:
            continue
        return values
    raise GenerationError(f"no K <= {MAX_K} gives a strictly convex support")


def _solve_slope(v1, v2, a, b):
    """Integral m with <m, v1> = a and <m, v2> = b, for det(v1, v2) = 1."""
    return [a * v2[1] - b * v1[1], b * v1[0] - a * v2[0]]


def flip_pattern(n, crossings):
    """Signs d_0..d_{n-1} of the sheet difference with N sign changes.

    The N changes sit at the transitions k -> k+1 for k = floor(j n / N).
    For odd N the transition n-1 -> n lands on -d_0 (case O); for even N
    it closes the cycle onto d_0 (case E).
    """
    if not 0 <= crossings <= n:
        raise GenerationError(f"N = {crossings} needs 0 <= N <= n = {n}")
    flips = {(j * n) // crossings for j in range(crossings)}
    signs = [1]
    for k in range(n - 1):
        signs.append(-signs[-1] if k in flips else signs[-1])
    return signs


def _holonomies(rng, count):
    return [str(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            for _ in range(count)]


def two_fold_problem(rays, support, crossings, rng):
    """Problem document with a 2-fold multi-section with N = crossings."""
    n = len(rays)
    signs = flip_pattern(n, crossings)
    base = [rng.randint(-3, 3) for _ in range(n)]
    diff = [s * rng.randint(1, 3) for s in signs]
    cones, lifted_rays = [], []
    if crossings % 2:
        # one lifted circle of length 2n: positions 0..n-1 are sheet a,
        # n..2n-1 sheet b, and the circle swaps sheets across ray 0
        values = base + [base[k] - diff[k] for k in range(n)]
        ids = [f"a{p}" for p in range(n)] + [f"b{p}" for p in range(n)]
        for p in range(2 * n):
            i = p % n
            slope = _solve_slope(rays[i], rays[(i + 1) % n],
                                 values[p], values[(p + 1) % (2 * n)])
            cones.append({"id": ids[p], "cone": i, "slope": slope})
        for q in range(2 * n):
            lifted_rays.append({"ray": q % n, "from": ids[(q - 1) % (2 * n)],
                                "to": ids[q]})
    else:
        for sheet, values in (("a", base),
                              ("b", [base[k] - diff[k] for k in range(n)])):
            for i in range(n):
                slope = _solve_slope(rays[i], rays[(i + 1) % n],
                                     values[i], values[(i + 1) % n])
                cones.append({"id": f"{sheet}{i}", "cone": i, "slope": slope})
            for i in range(n):
                lifted_rays.append({"ray": i, "from": f"{sheet}{(i - 1) % n}",
                                    "to": f"{sheet}{i}"})
    lifted_rays.sort(key=lambda r: r["ray"])
    return {
        "schema": PROBLEM_SCHEMA,
        "fan": {"rays": [list(v) for v in rays]},
        "support": list(support),
        "multisection": {"degree": 2, "lifted_cones": cones,
                         "lifted_rays": lifted_rays},
        "holonomies": _holonomies(rng, max(crossings - 3, 0)),
    }


def line_bundle_problem(rays, support, rng):
    """Rank-1 problem: one lift per cone with seeded integer ray values."""
    n = len(rays)
    values = [rng.randint(-3, 3) for _ in range(n)]
    cones = [{"id": f"s{i}", "cone": i,
              "slope": _solve_slope(rays[i], rays[(i + 1) % n],
                                    values[i], values[(i + 1) % n])}
             for i in range(n)]
    lifted_rays = [{"ray": i, "from": f"s{(i - 1) % n}", "to": f"s{i}"}
                   for i in range(n)]
    return {
        "schema": PROBLEM_SCHEMA,
        "fan": {"rays": [list(v) for v in rays]},
        "support": list(support),
        "multisection": {"degree": 1, "lifted_cones": cones,
                         "lifted_rays": lifted_rays},
    }


def check_problem(doc, crossings, tk):
    """Raise GenerationError unless the document is what was asked for."""
    tms = tk.schema.parse_problem(doc).tms
    report = tk.multisection.validate(tms)
    if not report.ok:
        raise GenerationError(f"generated multi-section is invalid: {report}")
    if tms.degree == 1:
        return
    got = tk.multisection.n_genericity(tms)
    if got != crossings:
        raise GenerationError(f"asked for N = {crossings}, generated N = {got}")
    tag = tk.multisection.classify_two_fold(tms).tag
    if tag != ("O" if crossings % 2 else "E"):
        raise GenerationError(f"N = {crossings} generated cover class {tag}")
    if not tk.multisection.parity_and_realizability(tms, got).parity_ok:
        raise GenerationError(f"N = {crossings} fails the parity theorem")


def generate(n, crossings, seed_key, tk):
    """Checked problem document on the n-ray fan.

    ``crossings`` is N, or None for the rank-1 (line-bundle) problem.
    ``seed_key`` seeds every random choice; equal keys give equal
    documents.
    """
    rng = random.Random(f"toricnets-perfbench:{seed_key}:{n}:{crossings}")
    rays = blowup_fan(n)
    support = support_values(rays, tk)
    if crossings is None:
        doc = line_bundle_problem(rays, support, rng)
    else:
        doc = two_fold_problem(rays, support, crossings, rng)
    check_problem(doc, crossings, tk)
    return doc


def serialize(doc):
    """Canonical JSON text of a problem document."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
