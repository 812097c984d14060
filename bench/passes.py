"""One measured pass of a benchmark workload, run in a fresh process.

``run.py`` starts this script once per pass, so nothing okkit caches in a
process (``okounkov._reachable_values`` is a process-wide ``lru_cache``)
survives from one pass to the next.  The pass:

1. sets up: ``import okkit``, ``load_example`` of the workload's entries
   (which verifies them), an ``okounkov_body`` re-check of each, then
   ``build_projection`` + ``build_family`` and ``enumerate_vd_basis``,
   and reports the CPU and wall time from process start to the end of it;
2. draws its inputs from the run seed and the pass index;
3. runs the workload, timing it in CPU and wall seconds and checking
   every answer;
4. prints one JSON line: times, counts, per-operation records, and with
   ``--trace 1`` the spans recorded around each call into a layer.

A traced pass makes the same calls as an untraced one, except that
``elliptic-coverage`` calls ``integrable_system_eval`` per point in place
of ``run_batch`` (which does the same with one worker).  Both flow
workloads then run a probe outside the timed part: per point, ``embed_point``,
``gradient_hamiltonian`` at the start point, on ``flag-brackets`` also
``tangent_frame(fiber_only=True)``, and one ``flow_to`` leg pair with a
``toric_moment`` of each terminal point.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from dataclasses import replace  # noqa: E402
from fractions import Fraction  # noqa: E402
from itertools import combinations_with_replacement  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import okkit  # noqa: E402
from okkit import (  # noqa: E402
    ChartPoint,
    FlowConfig,
    ValueSemigroup,
    build_family,
    build_projection,
    embed_point,
    enumerate_vd_basis,
    flow_to,
    gradient_hamiltonian,
    integrable_system_eval,
    list_examples,
    load_example,
    okounkov_body,
    poisson_bracket,
    run_batch,
    sample_intrinsic,
    semigroup_hilbert,
    subduct,
    tangent_frame,
    toric_moment,
)
from okkit.algebra import BiDegree, format_polynomial  # noqa: E402
from okkit.cli import canonical_json  # noqa: E402
from okkit.flow import diagnostics_dict, trajectory_csv  # noqa: E402
from okkit.okounkov import slice as semigroup_slice  # noqa: E402

from spans import Off, Tracer  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

EPSILON = 0.5
DELTA = 1e-4
F_SLACK = 1e-2  # criterion 07: every F lies in [0, 3] up to 1e-2
BRACKET_LIMIT = 1e-3  # criterion 08: |{F_i, F_j}| < 1e-3
BRACKETS = ((1, 2), (1, 3), (2, 3))

ENTRIES = {
    "elliptic-coverage": ("elliptic",),
    "flag-brackets": ("gl3-flag",),
    "flag-exact": ("gl3-flag", "elliptic", "elliptic-quotient-demo"),
}


class Pass:
    """What one pass attempted, what failed, and what it produced."""

    def __init__(self, traced):
        self.traced = traced
        self.tracer = Tracer() if traced else Off()
        self.attempted = 0
        self.failures = []
        self.problems = []
        self.counts = {}
        self.records = []
        self.outputs = {}
        self.flow_failures = {}
        self.digest = hashlib.sha256()

    def op(self, ok, what):
        """Count one operation; a failed one is kept with its reason."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def check(self, ok, what):
        """A check on the pass as a whole rather than on one operation."""
        if not ok:
            self.problems.append(what)

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def flow_failed(self, reason):
        """An ok=False flow result or an exception, counted by reason."""
        self.count("flow.failed")
        self.flow_failures[reason] = self.flow_failures.get(reason, 0) + 1


def cpu_seconds():
    """CPU time of this process and of the child processes it waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _fingerprint(obj):
    """Inputs rendered exactly: complex parts as float hex."""
    if isinstance(obj, complex):
        return "(%s,%s)" % (obj.real.hex(), obj.imag.hex())
    if isinstance(obj, (tuple, list)):
        return "[" + ",".join(_fingerprint(x) for x in obj) + "]"
    return repr(obj)


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def setup(names, run):
    tracer = run.tracer
    pipes = {}
    for name in names:
        with tracer.span("catalog.load"):
            entry = load_example(name)
        points = len(entry.semigroup.generators)
        with tracer.span("okounkov.hull"):
            body = okounkov_body(entry.semigroup)
        run.count("okounkov.hull_points", points)
        run.check(body == entry.body, "setup: %s body does not re-derive" % name)
        with tracer.span("degeneration.family"):
            fam = build_family(entry.relations, build_projection(entry.relations))
        with tracer.span("embedding.basis"):
            basis = enumerate_vd_basis(entry.datum, fam)
        pipes[name] = (entry, fam, basis)
    return pipes


def _sample(entry, count, seq, spread):
    """One spawned seed per point, as ``okkit flow`` samples."""
    points = []
    for child in seq.spawn(count):
        rng = np.random.default_rng(child)
        points += sample_intrinsic(entry.datum, 1, rng, log10_spread=spread)
    return points


def _probe(run, i, x, pipe, cfg, frame):
    """Start-point field (and frame), then one flow_to leg pair."""
    tracer = run.tracer
    entry, fam, basis = pipe
    try:
        with tracer.span("embedding.embed", i):
            cp = ChartPoint.from_projective(
                embed_point(x, entry.datum, fam, cfg.epsilon, basis)
            )
        with tracer.span("flow.field", i):
            gradient_hamiltonian(cp, fam, basis)
        if frame:
            with tracer.span("flow.frame", i):
                tangent_frame(cp, fam, basis, fiber_only=True)
    except Exception as exc:  # a failed probe is counted, not fatal
        reason = "%s: %s" % (type(exc).__name__, exc)
        run.check(False, "probe %d: %s" % (i, reason))
        run.flow_failed(reason)
        return None
    start, legs = cp, []
    for target in (cfg.delta, cfg.delta / 2):
        with tracer.span("flow.flow_to", i) as span:
            leg = flow_to(start, target, cfg, fam, basis)
        span["steps"] = leg.steps
        if not leg.ok:
            run.check(False, "probe %d: %s" % (i, leg.failure))
            run.flow_failed(leg.failure)
            return None
        with tracer.span("embedding.moment", i):
            mu = toric_moment(leg.terminal.full_coords(), basis)
        run.count("embedding.moment_calls")
        legs.append(leg)
        start = leg.terminal
        if mu != leg.moment:
            run.check(False, "probe %d: moment of the terminal point disagrees" % i)
            return None
    F = tuple(2.0 * b - a for a, b in zip(legs[0].moment, legs[1].moment))
    inside = entry.body.contains(
        [Fraction(v).limit_denominator(10**12) for v in F], slack=Fraction(F_SLACK)
    )
    run.check(inside, "probe %d: F = %r lies outside the body" % (i, F))
    return F, [leg.steps for leg in legs]


def elliptic_coverage(run, pipes, sizes, seq, seed):
    tracer = run.tracer
    pipe = pipes["elliptic"]
    entry, fam, basis = pipe
    cfg = FlowConfig(epsilon=EPSILON, delta=DELTA, seed=seed)
    points = _sample(entry, sizes["samples"], seq, spread=3.0)
    run.digest.update(_fingerprint(points).encode())

    started = time.perf_counter()
    if run.traced:
        results = []
        for i, x in enumerate(points):
            with tracer.span("flow.eval", i):
                outcome = integrable_system_eval(x, cfg, entry.datum, fam, basis)
            results.append(replace(outcome, index=i))
    else:
        results = run_batch(points, cfg, entry.datum, fam, basis)
    with tracer.span("cli.render"):
        csv = trajectory_csv(results)
        doc = diagnostics_dict(results, cfg)
        doc["entry"] = entry.name
        text = canonical_json(doc)
    pass_s = time.perf_counter() - started

    low, high = entry.body.vertices[0][0], entry.body.vertices[-1][0]
    expected_rows = 1
    for r in results:
        legs = [leg for leg in (r.flow, r.continuation) if leg is not None]
        steps = [leg.steps for leg in legs]
        expected_rows += sum(len(leg.samples) for leg in legs) - (len(legs) > 1)
        if r.ok:
            run.count("flow.steps", sum(steps))
            inside = low - F_SLACK <= r.F[0] <= high + F_SLACK
            run.op(inside, "sample %d: F = %r outside [0, 3]" % (r.index, r.F))
        else:
            run.op(False, "sample %d: %s" % (r.index, r.failure))
            run.flow_failed(r.failure)
        run.records.append({
            "id": r.index, "ok": r.ok, "failure": r.failure,
            "F": list(r.F) if r.F is not None else None,
            "convergence": r.convergence, "steps": steps,
        })
    run.count("cli.csv_bytes", len(csv.encode("utf-8")))
    run.check(csv.count("\n") == expected_rows, "CSV has the wrong row count")
    run.check(doc["succeeded"] == sum(r.ok for r in results),
              "diagnostics miscount the successes")
    run.outputs = {"csv_sha256": _sha(csv), "diagnostics_sha256": _sha(text)}

    if run.traced:
        with tracer.span("probe"):
            for r, x in zip(results, points):
                probed = _probe(run, r.index, x, pipe, cfg, frame=False)
                if probed is not None and r.ok:
                    same = probed[0] == r.F and probed[1] == run.records[r.index]["steps"]
                    run.check(same, "probe %d does not reproduce the batch" % r.index)
    return pass_s


def flag_brackets(run, pipes, sizes, seq, seed):
    tracer = run.tracer
    pipe = pipes["gl3-flag"]
    entry, fam, basis = pipe
    cfg = FlowConfig(epsilon=EPSILON, delta=DELTA, seed=seed)
    points = _sample(entry, sizes["points"], seq, spread=1.0)
    run.digest.update(_fingerprint(points).encode())

    started = time.perf_counter()
    for i, x in enumerate(points):
        for a, b in BRACKETS:
            record = {"id": i, "pair": [a, b], "value": None, "failure": None}
            try:
                with tracer.span("flow.bracket", i):
                    value = poisson_bracket(a, b, x, cfg, entry.datum, fam, basis)
            except Exception as exc:  # an exception is a failed operation
                record["failure"] = "%s: %s" % (type(exc).__name__, exc)
                run.flow_failed(record["failure"])
            else:
                record["value"] = value
                if abs(value) >= BRACKET_LIMIT:
                    record["failure"] = "|bracket| = %.3g" % abs(value)
            run.op(record["failure"] is None,
                   "point %d {F_%d, F_%d}: %s" % (i, a, b, record["failure"]))
            run.records.append(record)
    pass_s = time.perf_counter() - started

    if run.traced:
        with tracer.span("probe"):
            for i, x in enumerate(points):
                probed = _probe(run, i, x, pipe, cfg, frame=True)
                if probed is not None:
                    run.count("flow.steps", sum(probed[1]))
    return pass_s


def _weyl_gl3(a, b, c):
    """Dimension of the GL(3) irreducible of highest weight (a, b, c)."""
    return (a - b + 1) * (b - c + 1) * (a - c + 2) // 2


def _rational_text(vertices):
    return [[str(x) for x in v] for v in vertices]


def flag_exact(run, pipes, sizes, seq, seed):
    tracer = run.tracer
    rng = np.random.default_rng(seq)
    flag = pipes["gl3-flag"][0]
    level = sizes["level"]
    plan = []
    for name in ("gl3-flag", "elliptic"):
        datum = pipes[name][0].datum
        for _ in range(sizes["products"]):
            k = int(rng.integers(1, 6))
            plan.append((name, k, [int(j) for j in rng.integers(0, len(datum.generators), size=k)]))
    run.digest.update(repr(plan).encode())
    outputs = {}

    started = time.perf_counter()
    # (1) every bundled entry loads and verifies
    degrees = {}
    for name, _ in list_examples():
        with tracer.span("catalog.load"):
            entry = load_example(name)
        n = entry.body.ambient_dim
        degrees[name] = entry.degree
        run.op(entry.name == name and entry.degree == entry.body.volume * math.factorial(n),
               "%s: degree is not n! times the volume" % name)
    outputs["degrees"] = degrees

    # (2) the level-k Veronese subsemigroup has the same body
    values = sorted({
        tuple(sum(col) for col in zip(*(g.value for g in combo)))
        for combo in combinations_with_replacement(flag.semigroup.generators, level)
    })
    veronese = ValueSemigroup(tuple(BiDegree(level, v) for v in values))
    with tracer.span("okounkov.hull"):
        body = okounkov_body(veronese)
    run.count("okounkov.hull_points", len(values))
    run.op(len(values) == _weyl_gl3(2 * level, level, 0) and body == flag.body,
           "level-%d Veronese body differs from the Gelfand-Tsetlin body" % level)
    outputs["veronese_vertices"] = _rational_text(body.vertices)

    # (3) Hilbert counts against the Weyl dimension formula
    hilbert = []
    for k in range(1, sizes["hilbert_k"] + 1):
        with tracer.span("okounkov.hilbert"):
            h = semigroup_hilbert(flag.semigroup, k)
        hilbert.append(h)
        run.count("okounkov.hilbert_total", h)
        run.op(h == _weyl_gl3(2 * k, k, 0), "H(%d) = %d, Weyl says %d"
               % (k, h, _weyl_gl3(2 * k, k, 0)))
    outputs["hilbert"] = hilbert

    # (4) subduction of random products, then one slice
    for name, k, picks in plan:
        datum = pipes[name][0].datum
        with tracer.span("algebra.product"):
            f = datum.generators[picks[0]].representative
            for j in picks[1:]:
                f = f * datum.generators[j].representative
        record = {"entry": name, "level": k, "picks": picks, "chain": None,
                  "expression_sha256": None, "failure": None}
        try:
            with tracer.span("okounkov.subduct"):
                expression, chain = subduct(f, k, datum)
        except Exception as exc:  # an exception is a failed operation
            record["failure"] = "%s: %s" % (type(exc).__name__, exc)
        else:
            record["chain"] = len(chain)
            record["expression_sha256"] = _sha(format_polynomial(expression))
            run.count("okounkov.subduct_chain", len(chain))
            if datum.substitute(expression) != datum.reduce(f):
                record["failure"] = "substitute(expression) != reduce(f)"
            elif not all(a < b for a, b in zip(chain, chain[1:])):
                record["failure"] = "chain is not increasing"
        run.op(record["failure"] is None, "subduct %s %r: %s"
               % (name, picks, record["failure"]))
        run.records.append(record)

    demo = pipes["elliptic-quotient-demo"][0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tracer.span("okounkov.slice"):
            sliced_semigroup, sliced_body = semigroup_slice(
                demo.semigroup, demo.body, demo.grading
            )
    run.op(not caught and sliced_semigroup == demo.sliced_semigroup
           and sliced_body == demo.sliced_body,
           "slice of %s differs from the bundled one or warns" % demo.name)
    outputs["sliced_vertices"] = _rational_text(sliced_body.vertices)
    pass_s = time.perf_counter() - started
    run.outputs = outputs
    return pass_s


PASSES = {
    "elliptic-coverage": elliptic_coverage,
    "flag-brackets": flag_brackets,
    "flag-exact": flag_exact,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--sizes", type=json.loads, required=True)
    args = parser.parse_args()

    if Path(okkit.__file__).resolve().parent.parent != SRC:
        sys.exit("okkit was imported from %s, not from %s" % (okkit.__file__, SRC))
    run = Pass(bool(args.trace))
    pipes = setup(ENTRIES[args.workload], run)
    setup_wall_s, setup_cpu_s = time.perf_counter() - T0, cpu_seconds()

    seq = np.random.SeedSequence(args.seed, spawn_key=(args.pass_index,))
    cpu = cpu_seconds()
    pass_wall_s = PASSES[args.workload](run, pipes, args.sizes, seq, args.seed)
    pass_cpu_s = cpu_seconds() - cpu
    print(json.dumps({
        "index": args.pass_index,
        "traced": bool(args.trace),
        "setup_wall_s": setup_wall_s,
        "setup_cpu_s": setup_cpu_s,
        "pass_wall_s": pass_wall_s,
        "pass_cpu_s": pass_cpu_s,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "problems": run.problems,
        "counts": run.counts,
        "flow_failures": run.flow_failures,
        "inputs_sha256": run.digest.hexdigest(),
        "records": run.records,
        "outputs": run.outputs,
        "numpy": np.__version__,
        "spans": run.tracer.export(),
    }))


if __name__ == "__main__":
    main()
