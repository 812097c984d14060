"""Acceptance gate: eleven criteria, one test each.

Every criterion is a single test function; under ``pytest -v`` each
produces exactly one PASSED or FAILED line, and each prints a summary
with its runtime.  Tolerances and time budgets are pinned in the
assertions, not configurable.  Helpers here re-derive expected numbers
from scratch (closed forms, direct formulas) so the assertions do not
lean on the code paths they are judging.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from okkit.degeneration import build_family, build_projection
from okkit.embedding import embed_point, enumerate_vd_basis, sample_intrinsic, toric_moment
from okkit.flow import (
    ChartPoint,
    FlowConfig,
    flow_to,
    gradient_hamiltonian,
    integrable_system_eval,
    poisson_bracket,
    run_batch,
    symplectic_residual,
    tangent_frame,
)
from okkit.okounkov import (
    GradingHomomorphism,
    degree_check,
    okounkov_body,
    semigroup_hilbert,
    subduct,
)
from okkit.okounkov import _level_table
from okkit.okounkov import slice as semigroup_slice
from oracles import substitute_tau, weyl_dimension_gl3
from presentations import ALL_DATA, relation_set_for

EPSILON = 0.5
DELTA = 1e-4
MAIN_ENTRIES = ("p1", "p1xp1", "elliptic", "gl3-flag")
# gl3-flag flows take the longest; `okkit check` probes them
FLOW_ENTRIES = ("p1", "p1xp1", "elliptic")


def _report(number, label, started, detail=""):
    elapsed = time.perf_counter() - started
    suffix = ("; " + detail) if detail else ""
    print("criterion %02d (%s): PASS in %.2fs%s" % (number, label, elapsed, suffix))


def _pipeline(name):
    rels = relation_set_for(name)
    fam = build_family(rels, build_projection(rels))
    basis = enumerate_vd_basis(rels.datum, fam)
    return rels, fam, basis


def _spawned_samples(datum, count, seed, spread=0.0):
    """Per-sample child seeds, so sample i is stable under count changes."""
    points = []
    for child in np.random.SeedSequence(seed).spawn(count):
        points += sample_intrinsic(datum, 1, np.random.default_rng(child), log10_spread=spread)
    return points


def test_criterion_01_elliptic_semigroup_and_body():
    """The cubic's semigroup generators, body and degree, exactly."""
    started = time.perf_counter()
    datum = ALL_DATA["elliptic"]()
    S = datum.semigroup()
    assert S.group_complete
    assert {(g.level, g.value) for g in S.generators} == {
        (1, (0,)),
        (1, (1,)),
        (1, (3,)),
    }
    body = okounkov_body(S)
    assert body.vertices == ((Fraction(0),), (Fraction(3),))
    assert body.volume == Fraction(3)
    degree = body.volume * math.factorial(body.ambient_dim)
    assert degree == 3
    assert time.perf_counter() - started < 1.0
    _report(1, "elliptic semigroup and body", started, "degree 3")


def test_criterion_02_elliptic_hilbert_growth():
    """H(k) = 3k for k = 1..10, and the volume matches the growth."""
    started = time.perf_counter()
    S = ALL_DATA["elliptic"]().semigroup()
    for k in range(1, 11):
        assert semigroup_hilbert(S, k) == 3 * k, "H(%d) is off" % k
    outcome = degree_check(S, 10)
    assert outcome["relative_error"] == 0
    assert outcome["fitted_leading_coefficient"] == Fraction(3)
    assert time.perf_counter() - started < 1.0
    _report(2, "elliptic Hilbert growth", started, "H(k) = 3k")


def test_criterion_03_subduction_closure():
    """200 random level <= 4 combinations per presentation subduct to
    an expression that reproduces the class exactly."""
    started = time.perf_counter()
    rng = np.random.default_rng(31)
    per_entry = 200
    for name in MAIN_ENTRIES:
        datum = ALL_DATA[name]()
        reps = [g.representative for g in datum.generators]
        done = 0
        while done < per_entry:
            k = int(rng.integers(1, 5))
            f = None
            for _ in range(int(rng.integers(1, 4))):
                coeff = Fraction(int(rng.integers(1, 4)) * (1 if rng.random() < 0.7 else -1))
                term = None
                for idx in rng.integers(0, len(reps), size=k):
                    term = reps[idx] if term is None else term * reps[idx]
                piece = term * coeff
                f = piece if f is None else f + piece
            if datum.reduce(f).is_zero():
                continue
            expression, chain = subduct(f, k, datum)
            assert datum.substitute(expression) == datum.reduce(f)
            assert all(a < b for a, b in zip(chain, chain[1:]))
            done += 1
    assert time.perf_counter() - started < 30.0
    _report(3, "subduction closure", started, "200 combos x 4 entries")


def test_criterion_04_family_identities():
    """t = 1 returns the relations, t = 0 the initial forms, and no
    family polynomial carries a linear tau term; all exact."""
    started = time.perf_counter()
    for name in MAIN_ENTRIES:
        rels, fam, _ = _pipeline(name)
        assert tuple(substitute_tau(fam, 1)) == rels.relations
        assert tuple(substitute_tau(fam, 0)) == fam.initial_forms
        for g in fam.family:
            assert all(e[-1] != 1 for e in g.terms), "linear tau term in %s" % name
            assert all(e[-1] >= 0 for e in g.terms)
        # the initial form must collect exactly the p-maximal monomials
        p = fam.functional
        for g, g0 in zip(rels.relations, fam.initial_forms):
            weights = {e: p.weight_of(e) for e in g.terms}
            top = max(weights.values())
            expected = {e for e, w in weights.items() if w == top}
            assert set(g0.terms) == expected
    assert time.perf_counter() - started < 5.0
    _report(4, "family identities", started, "exact at t = 0, 1")


def test_criterion_05_flow_conservation():
    """50 trajectories per entry of FLOW_ENTRIES (gl3-flag is left out
    for time): the time component of the gradient field is -1 to 1e-8,
    Im pi stays under 1e-8, and the time coordinate tracks epsilon - s
    to 1e-6."""
    started = time.perf_counter()
    cfg = FlowConfig(epsilon=EPSILON, delta=DELTA)
    for name in FLOW_ENTRIES:
        rels, fam, basis = _pipeline(name)
        datum = rels.datum
        points = _spawned_samples(datum, 50, 101, spread=1.0)
        for x in points:
            pt = embed_point(x, datum, fam, EPSILON, basis)
            cp = ChartPoint.from_projective(pt)
            speed = gradient_hamiltonian(cp, fam, basis)
            assert abs(speed[-2] + 1.0) < 1e-8
            result = flow_to(cp, DELTA, cfg, fam, basis)
            assert result.ok, "%s: %s" % (name, result.failure)
            assert result.max_im_pi < 1e-8
            assert result.max_re_lin_err < 1e-6
            terminal_speed = gradient_hamiltonian(result.terminal, fam, basis)
            assert abs(terminal_speed[-2] + 1.0) < 1e-8
    assert time.perf_counter() - started < 120.0
    _report(5, "flow conservation", started, "50 trajectories x 3 entries")


def test_criterion_06_p1_values_match_direct_moment():
    """On the line the flow fixes the fiber coordinates, so the final
    value must equal the moment of the embedded start point."""
    started = time.perf_counter()
    rels, fam, basis = _pipeline("p1")
    datum = rels.datum
    cfg = FlowConfig(epsilon=EPSILON, delta=DELTA)
    for x in _spawned_samples(datum, 50, 7, spread=2.0):
        direct = toric_moment(embed_point(x, datum, fam, EPSILON, basis), basis)
        outcome = integrable_system_eval(x, cfg, datum, fam, basis)
        assert outcome.ok, outcome.failure
        assert abs(outcome.F[0] - direct[0]) < 1e-6
        assert -1e-6 <= outcome.F[0] <= 1 + 1e-6
    assert time.perf_counter() - started < 120.0
    _report(6, "line values against direct moment", started, "50 samples")


def test_criterion_07_elliptic_image_coverage():
    """200 spread-out samples on the cubic: every value lands in the
    segment [0, 3] up to 1e-2 and the sampled hull covers 95% of it."""
    started = time.perf_counter()
    rels, fam, basis = _pipeline("elliptic")
    datum = rels.datum
    cfg = FlowConfig(epsilon=EPSILON, delta=DELTA, seed=20260818)
    points = _spawned_samples(datum, 200, 20260818, spread=3.0)
    results = run_batch(points, cfg, datum, fam, basis)
    values = []
    for outcome in results:
        assert outcome.ok, "sample %d: %s" % (outcome.index, outcome.failure)
        values.append(outcome.F[0])
        assert -1e-2 <= outcome.F[0] <= 3 + 1e-2
    coverage = (max(values) - min(values)) / 3.0
    assert coverage >= 0.95
    assert time.perf_counter() - started < 180.0
    _report(7, "elliptic image coverage", started, "coverage %.3f" % coverage)


def test_criterion_08_p1xp1_brackets_vanish():
    """The two action coordinates of the quadric Poisson-commute at 20
    random points."""
    started = time.perf_counter()
    rels, fam, basis = _pipeline("p1xp1")
    datum = rels.datum
    cfg = FlowConfig(epsilon=EPSILON, delta=DELTA)
    worst = 0.0
    for x in _spawned_samples(datum, 20, 13, spread=1.0):
        bracket = poisson_bracket(1, 2, x, cfg, datum, fam, basis)
        worst = max(worst, abs(bracket))
        assert abs(bracket) < 1e-3
    assert time.perf_counter() - started < 180.0
    _report(8, "quadric bracket vanishing", started, "worst %.2e" % worst)


def test_criterion_09_symplectic_transport():
    """20 (point, u, v) triples per entry of FLOW_ENTRIES (gl3-flag is
    left out for time): the symplectic pairing of transported tangent
    vectors is conserved to 1e-4."""
    started = time.perf_counter()
    cfg = FlowConfig(epsilon=EPSILON, delta=DELTA)
    rng = np.random.default_rng(97)
    for name in FLOW_ENTRIES:
        rels, fam, basis = _pipeline(name)
        datum = rels.datum
        for x in _spawned_samples(datum, 20, 23, spread=1.0):
            pt = embed_point(x, datum, fam, EPSILON, basis)
            cp = ChartPoint.from_projective(pt)
            frame = tangent_frame(cp, fam, basis, fiber_only=True)
            a = rng.standard_normal(frame.shape[1])
            b = rng.standard_normal(frame.shape[1])
            u = frame @ (a / np.linalg.norm(a))
            v = frame @ (b / np.linalg.norm(b))
            drift = symplectic_residual(cp, u, v, cfg, fam, basis)
            assert drift < 1e-4, "%s: drift %.3e" % (name, drift)
    assert time.perf_counter() - started < 300.0
    _report(9, "symplectic transport", started, "20 triples x 3 entries")


def test_criterion_10_slicing_and_commutation():
    """Slicing the cubic by the weight-difference grading gives the point
    body {1} exactly, and slicing commutes with the level tables: on the
    cubic and the flag, the sliced semigroup has as many values at each
    level k = 1..8 as the full level table has in the grading kernel."""
    started = time.perf_counter()
    cases = (("elliptic", ((-1, 1),)), ("gl3-flag", ((-2, 1, 1, 1),)))
    counts = {}
    for name, matrix in cases:
        S = ALL_DATA[name]().semigroup()
        grading = GradingHomomorphism(matrix)
        sliced_S, sliced_body = semigroup_slice(S, okounkov_body(S), grading)
        if name == "elliptic":
            assert {(g.level, g.value) for g in sliced_S.generators} == {(1, (1,))}
            assert sliced_body.vertices == ((Fraction(1),),)
            assert sliced_body.volume == 0
        M = np.array(matrix)
        for k in range(1, 9):
            rows = _level_table(S, k).rows
            in_kernel = int((rows @ M[:, 1:].T + k * M[:, 0] == 0).all(axis=1).sum())
            assert semigroup_hilbert(sliced_S, k) == in_kernel, "%s, k=%d" % (name, k)
            counts[name, k] = in_kernel
    assert time.perf_counter() - started < 60.0
    _report(
        10, "slicing and commutation", started,
        "kernel counts at k = 8: %d and %d" % (counts["elliptic", 8], counts["gl3-flag", 8]),
    )


def test_criterion_11_gl3_lattice_counts():
    """Lattice points of the k-fold dilated flag body match the Weyl
    dimension of the k-stretched highest weight for k = 1..4."""
    started = time.perf_counter()
    S = ALL_DATA["gl3-flag"]().semigroup()
    body = okounkov_body(S)
    n = body.ambient_dim
    los = [min(v[i] for v in body.vertices) for i in range(n)]
    his = [max(v[i] for v in body.vertices) for i in range(n)]
    for k in range(1, 5):
        count = 0
        ranges = [
            range(math.ceil(lo * k), math.floor(hi * k) + 1)
            for lo, hi in zip(los, his)
        ]
        for point in _integer_box(ranges):
            if body.contains([Fraction(x, k) for x in point]):
                count += 1
        expected = weyl_dimension_gl3((2 * k, k, 0))
        assert count == expected, "k=%d: %d points, dimension %d" % (
            k,
            count,
            expected,
        )
        assert semigroup_hilbert(S, k) == expected
    assert weyl_dimension_gl3((2, 1, 0)) == 8
    assert time.perf_counter() - started < 10.0
    _report(11, "flag body lattice counts", started, "k = 1..4")


def _integer_box(ranges):
    if not ranges:
        yield ()
        return
    for x in ranges[0]:
        for rest in _integer_box(ranges[1:]):
            yield (x,) + rest
