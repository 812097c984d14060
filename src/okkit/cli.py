"""Command line front end.

Five commands over the bundled (or user-supplied) catalog entries:

    body        value semigroup, body, degree as canonical JSON, plus SVG
    degenerate  weight functional and the one-parameter family
    flow        sample intrinsic points, integrate, export CSV/diagnostics
    check       re-derive every stored invariant and print a table
    slice       cut semigroup and body down to a grading kernel

Exit codes: 0 on success, 1 when a computation ran but failed a quality
threshold (flow success rate, commutation residual, a FAIL row in check),
2 for usage and validation problems (bad flags, malformed config or entry
files, entries whose stored expectations do not re-derive).

JSON output is canonical: object keys sorted, floats rendered with
%.17g, no whitespace variation; byte-identical reruns are part of the
contract.  A ``--config FILE`` before the command supplies defaults as
``key = value`` lines with ``#`` comments; unknown keys are rejected.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from fractions import Fraction
from pathlib import Path

import click
import numpy as np

from okkit.algebra import Polynomial
from okkit.catalog import CatalogEntry, CatalogError, list_examples, load_entry_file, load_example
from okkit.catalog import _need, _parse_matrix
from okkit.degeneration import DegenerationError, build_family, build_projection
from okkit.embedding import (
    EmbeddingError,
    embed_point,
    enumerate_vd_basis,
    reduced_moment,
    sample_intrinsic,
    toric_moment,
)
from okkit.flow import (
    FlowConfig,
    FlowError,
    diagnostics_dict,
    run_batch,
    trajectory_csv,
)
from okkit.okounkov import NotInSemigroupError, SliceCompletenessWarning, subduct
from okkit.okounkov import slice as semigroup_slice

COMMUTATION_TOLERANCE = 1e-6
FLOW_SUCCESS_FRACTION = 0.9

_CONFIG_KEYS = {
    "epsilon": float,
    "delta": float,
    "samples": int,
    "seed": int,
    "spread": float,
}
# values a config key, and the flag of the same name, refuse although they parse
_LIMITS = {
    "samples": (lambda v: v >= 1, "must be at least 1"),
    "seed": (lambda v: v >= 0, "must be nonnegative"),
    # sample radii reach 10**spread, whose cube must stay a finite double
    "spread": (lambda v: math.isfinite(v) and v <= 100, "must be finite and at most 100"),
}


# ---------------------------------------------------------------------------
# canonical serialization


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, %.17g floats, minimal spacing."""
    pieces = []
    _render(obj, pieces)
    return "".join(pieces)


def _render(obj, out: list):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise ValueError("non-finite float in canonical output")
        out.append("%.17g" % obj)
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, Fraction):
        _render([obj.numerator, obj.denominator], out)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _render(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ValueError("object keys must be strings")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _render(obj[key], out)
        out.append("}")
    else:
        raise ValueError("cannot serialize %r" % type(obj).__name__)


# ---------------------------------------------------------------------------
# SVG rendering of bodies


def _hull_2d(points):
    """Andrew's monotone chain on float pairs; returns the hull cycle."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0:
                    break
                chain.pop()
            chain.append(p)
        return chain[:-1]

    return half(pts) + half(list(reversed(pts)))


def body_svg(body) -> str:
    """Draw a body: 1D as a segment, 2D as a filled polygon, 3D projected
    onto the plane of largest variance."""
    verts = [tuple(float(x) for x in v) for v in body.vertices]
    note = ""
    if not verts:
        verts2 = []
    elif body.ambient_dim == 1:
        verts2 = [(x[0], 0.0) for x in verts]
    elif body.ambient_dim == 2:
        verts2 = verts
    elif body.ambient_dim == 3:
        arr = np.array(verts)
        centered = arr - arr.mean(axis=0)
        _, vecs = np.linalg.eigh(centered.T @ centered)
        axes = vecs[:, ::-1][:, :2]  # eigenvectors, largest variance first
        for k in range(2):  # fix the sign so output is deterministic
            pivot = np.argmax(np.abs(axes[:, k]))
            if axes[pivot, k] < 0:
                axes[:, k] = -axes[:, k]
        projected = centered @ axes
        verts2 = [tuple(p) for p in projected]
        note = "projection onto the two directions of largest variance"
    else:
        raise ValueError("SVG rendering covers ambient dimensions 1 to 3")

    width, height = 420.0, 300.0
    margin = 40.0
    if verts2:
        xs = [p[0] for p in verts2]
        ys = [p[1] for p in verts2]
        span_x = max(xs) - min(xs) or 1.0
        span_y = max(ys) - min(ys) or 1.0
        scale = min((width - 2 * margin) / span_x, (height - 2 * margin) / span_y)

        def place(p):
            return (
                margin + (p[0] - min(xs)) * scale,
                height - margin - (p[1] - min(ys)) * scale,
            )

        placed = [place(p) for p in verts2]
    else:
        placed = []

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %g %g">' % (width, height),
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    if len(placed) >= 3:
        cycle = _hull_2d(placed)
        path = " ".join("%.3f,%.3f" % p for p in cycle)
        parts.append(
            '<polygon points="%s" fill="#9db8d9" fill-opacity="0.55" '
            'stroke="#27496d" stroke-width="1.5"/>' % path
        )
    elif len(placed) == 2:
        (x0, y0), (x1, y1) = placed
        parts.append(
            '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" '
            'stroke="#27496d" stroke-width="3"/>' % (x0, y0, x1, y1)
        )
    for (px, py), original in zip(placed, verts):
        parts.append('<circle cx="%.3f" cy="%.3f" r="3.5" fill="#27496d"/>' % (px, py))
        if body.ambient_dim <= 2:
            label = "(" + ", ".join("%g" % x for x in original) + ")"
            parts.append(
                '<text x="%.3f" y="%.3f" font-size="11" fill="#222">%s</text>'
                % (px + 6, py - 6, label)
            )
    if note:
        parts.append(
            '<text x="%g" y="%g" font-size="11" fill="#555">%s</text>'
            % (margin, height - 12, note)
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# shared plumbing


def _load_entry(ref: str) -> CatalogEntry:
    try:
        if ref.endswith(".json") or "/" in ref or os.sep in ref:
            return load_entry_file(ref)
        return load_example(ref)
    except CatalogError as exc:
        raise click.UsageError(str(exc)) from exc


def _entry_pipeline(entry: CatalogEntry):
    fam = build_family(entry.relations, build_projection(entry.relations))
    basis = enumerate_vd_basis(entry.datum, fam)
    return fam, basis


def _setting(ctx: click.Context, key: str, value):
    """Flag value unless it was left at its default and the config file
    supplies one."""
    cfg = ctx.obj or {}
    source = ctx.get_parameter_source(key)
    if source == click.core.ParameterSource.DEFAULT and key in cfg:
        return cfg[key]
    return value


def _parse_config(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, text = line.partition("=")
            if not eq:
                raise click.UsageError(
                    "%s:%d: expected 'key = value'" % (path, lineno)
                )
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise click.UsageError(
                    "%s:%d: unknown key %r (known: %s)"
                    % (path, lineno, key, ", ".join(sorted(_CONFIG_KEYS)))
                )
            try:
                values[key] = _CONFIG_KEYS[key](text.strip())
            except ValueError:
                raise click.UsageError(
                    "%s:%d: bad value for %r" % (path, lineno, key)
                )
            within, limit = _LIMITS.get(key, (None, None))
            if within and not within(values[key]):
                raise click.UsageError(
                    "%s:%d: bad value for %r: %s" % (path, lineno, key, limit)
                )
    return values


def _sample_points(entry: CatalogEntry, count: int, seed: int, spread: float):
    """One spawned seed per sample, so point i does not depend on count."""
    children = np.random.SeedSequence(seed).spawn(count)
    points = []
    for child in children:
        rng = np.random.default_rng(child)
        points += sample_intrinsic(entry.datum, 1, rng, log10_spread=spread)
    return points


def _within_limits(ctx, param, value):
    within, limit = _LIMITS[param.name]
    if not within(value):
        raise click.BadParameter(limit)
    return value


# ---------------------------------------------------------------------------
# commands


@click.group()
@click.option(
    "--config",
    "config_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="File of 'key = value' defaults (epsilon, delta, samples, seed, spread).",
)
@click.pass_context
def main(ctx, config_path):
    """Semigroups, bodies, degenerations and flows for graded presentations."""
    ctx.obj = _parse_config(config_path) if config_path else {}


@main.command()
@click.argument("entry")
@click.option("--json", "json_path", type=click.Path(writable=True), default=None)
@click.option("--svg", "svg_path", type=click.Path(writable=True), default=None)
def body(entry, json_path, svg_path):
    """Value semigroup, body and degree of ENTRY as canonical JSON."""
    loaded = _load_entry(entry)
    doc = {
        "entry": loaded.name,
        "semigroup_generators": [
            [g.level, list(g.value)] for g in loaded.semigroup.generators
        ],
        "body": loaded.body.to_json_dict(),
        "degree": loaded.degree,
    }
    text = canonical_json(doc)
    click.echo(text)
    if json_path:
        Path(json_path).write_text(text + "\n", encoding="utf-8")
    if svg_path:
        try:
            picture = body_svg(loaded.body)
        except ValueError as exc:
            raise click.ClickException(str(exc)) from exc
        Path(svg_path).write_text(picture, encoding="utf-8")


@main.command()
@click.argument("entry")
@click.option("--json", "json_path", type=click.Path(writable=True), default=None)
def degenerate(entry, json_path):
    """Weight functional, family and initial forms of ENTRY."""
    loaded = _load_entry(entry)
    try:
        fam = build_family(loaded.relations, build_projection(loaded.relations))
    except DegenerationError as exc:
        raise click.ClickException(str(exc)) from exc
    doc = dict(fam.to_json_dict())
    doc["entry"] = loaded.name
    doc["functional"] = list(fam.functional.p)
    text = canonical_json(doc)
    click.echo(text)
    if json_path:
        Path(json_path).write_text(text + "\n", encoding="utf-8")


@main.command()
@click.argument("entry")
@click.option("--epsilon", type=float, default=0.5, show_default=True)
@click.option("--delta", type=float, default=1e-4, show_default=True)
@click.option("--samples", type=int, default=50, show_default=True, callback=_within_limits)
@click.option("--seed", type=int, default=0, show_default=True, callback=_within_limits)
@click.option("--spread", type=float, default=2.0, show_default=True, callback=_within_limits,
              help="log10 radius spread of the intrinsic sampling.")
@click.option("--csv", "csv_path", type=click.Path(writable=True), default=None)
@click.option("--diagnostics", "diag_path", type=click.Path(writable=True), default=None)
@click.pass_context
def flow(ctx, entry, epsilon, delta, samples, seed, spread, csv_path, diag_path):
    """Integrate the flow on SAMPLES random points of ENTRY.

    Prints the diagnostics JSON; exits 0 only when at least 90 percent
    of the samples produced a value.
    """
    loaded = _load_entry(entry)
    epsilon = _setting(ctx, "epsilon", epsilon)
    delta = _setting(ctx, "delta", delta)
    samples = _setting(ctx, "samples", samples)
    seed = _setting(ctx, "seed", seed)
    spread = _setting(ctx, "spread", spread)
    try:
        cfg = FlowConfig(epsilon=epsilon, delta=delta, seed=seed)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    try:
        fam, basis = _entry_pipeline(loaded)
        points = _sample_points(loaded, samples, seed, spread)
        results = run_batch(points, cfg, loaded.datum, fam, basis)
    except (EmbeddingError, FlowError) as exc:
        # only an entry the flow cannot model raises; trajectories fail as results
        click.echo("cannot flow %s: %s" % (loaded.name, exc), err=True)
        ctx.exit(2)
    if csv_path:
        Path(csv_path).write_text(trajectory_csv(results), encoding="utf-8")
    doc = diagnostics_dict(results, cfg)
    doc["entry"] = loaded.name
    text = canonical_json(doc)
    click.echo(text)
    if diag_path:
        Path(diag_path).write_text(text + "\n", encoding="utf-8")
    succeeded = doc["succeeded"]
    if succeeded < FLOW_SUCCESS_FRACTION * samples:
        click.echo(
            "flow quality failure: %d of %d samples succeeded"
            % (succeeded, samples),
            err=True,
        )
        ctx.exit(1)


def _check_rows(entry: CatalogEntry):
    """Re-derive the verifiable statements for one entry."""
    rows = []

    def row(label, passed, detail=""):
        rows.append((label, bool(passed), detail))

    rng = np.random.default_rng(1729)
    datum = entry.datum
    try:
        for _ in range(5):
            alpha = rng.integers(0, 2, size=len(datum.generators))
            if not alpha.any():
                alpha[int(rng.integers(len(datum.generators)))] = 1
            level = int(
                sum(int(a) * g.level for a, g in zip(alpha, datum.generators))
            )
            f = datum.substitute(Polynomial.monomial(datum.symbol_ring, alpha))
            expression, _ = subduct(f, level, datum)
            if datum.substitute(expression) != datum.reduce(f):
                raise NotInSemigroupError("subduction residual is nonzero")
        row("subduction residuals", True, "5 random products")
    except NotInSemigroupError as exc:
        row("subduction residuals", False, str(exc))

    try:
        fam, basis = _entry_pipeline(entry)
    except EmbeddingError as exc:
        for label in ("moment containment", "flow probe"):
            rows.append((label, None, "skipped: %s" % exc))
        return rows
    contained = True
    for _ in range(20):
        z = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        mu = toric_moment(tuple(z), basis)
        if not entry.body.contains(
            [Fraction(x).limit_denominator(10**12) for x in mu],
            slack=Fraction(1, 10**9),
        ):
            contained = False
    row("moment containment", contained, "20 random points")

    try:
        points = _sample_points(entry, 2, 7, 1.0)
        results = run_batch(points, entry.flow, datum, fam, basis)
    except FlowError as exc:
        rows.append(("flow probe", None, "skipped: %s" % exc))
    else:
        row("flow probe", all(r.ok for r in results), "2 trajectories")
    return rows


@main.command()
@click.argument("entry", required=False, default=None)
@click.pass_context
def check(ctx, entry):
    """Re-derive stored invariants; FAIL rows give exit code 1."""
    names = [entry] if entry else [name for name, _ in list_examples()]
    all_ok = True
    for name in names:
        try:
            loaded = _load_entry(name)
        except click.UsageError as exc:
            click.echo("entry: %s" % name)
            click.echo("  %-24s FAIL  %s" % ("load", exc))
            all_ok = False
            continue
        click.echo("entry: %s" % loaded.name)
        for label, passed, detail in _check_rows(loaded):
            if passed is None:
                status = "SKIP"
            elif passed:
                status = "PASS"
            else:
                status = "FAIL"
                all_ok = False
            suffix = ("  " + detail) if detail else ""
            click.echo("  %-24s %s%s" % (label, status, suffix))
    click.echo("overall: %s" % ("PASS" if all_ok else "FAIL"))
    if not all_ok:
        ctx.exit(1)


@main.command(name="slice")
@click.argument("entry")
@click.option(
    "--homomorphism",
    "hom_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help='JSON file {"matrix": [[...], ...]}; defaults to the grading bundled with the entry.',
)
@click.option("--samples", type=int, default=50, show_default=True, callback=_within_limits)
@click.option("--seed", type=int, default=0, show_default=True, callback=_within_limits)
@click.option("--json", "json_path", type=click.Path(writable=True), default=None)
@click.pass_context
def slice_cmd(ctx, entry, hom_path, samples, seed, json_path):
    """Cut ENTRY's semigroup and body down to a grading kernel.

    Also embeds random points and compares the reduced moment with the
    grading applied to the full moment; the largest gap is the
    commutation residual, capped at 1e-6 for success.
    """
    loaded = _load_entry(entry)
    samples = _setting(ctx, "samples", samples)
    seed = _setting(ctx, "seed", seed)
    if hom_path is not None:
        where = "homomorphism file %s" % hom_path
        try:
            with open(hom_path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
            if not isinstance(doc, dict):
                raise CatalogError("%s: must hold one JSON object" % where)
            width = loaded.semigroup.value_dim + 1
            grading = _parse_matrix(_need(doc, "matrix", list, where), width, where)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise click.UsageError("%s: not valid JSON: %s" % (where, exc)) from exc
        except CatalogError as exc:
            raise click.UsageError(str(exc)) from exc
    elif loaded.grading is not None:
        grading = loaded.grading
    else:
        raise click.UsageError(
            "entry %r carries no grading; pass --homomorphism" % loaded.name
        )

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SliceCompletenessWarning)
        try:
            sliced_semigroup, sliced_body = semigroup_slice(
                loaded.semigroup, loaded.body, grading
            )
        except OverflowError as exc:
            raise click.UsageError("homomorphism rejected: %s" % exc) from exc
    for warning in caught:
        click.echo("warning: %s" % warning.message, err=True)

    try:
        fam, basis = _entry_pipeline(loaded)
    except EmbeddingError as exc:
        click.echo("cannot embed %s: %s" % (loaded.name, exc), err=True)
        ctx.exit(2)
    worst = 0.0
    used = 0
    for x in _sample_points(loaded, samples, seed, 1.0):
        try:
            pt = embed_point(x, loaded.datum, fam, loaded.flow.epsilon, basis)
        except EmbeddingError:
            continue
        used += 1
        mu = toric_moment(pt, basis)
        red = reduced_moment(pt, basis, grading)
        direct = grading.apply((1,) + tuple(mu))
        worst = max(
            worst, max(abs(a - float(b)) for a, b in zip(red, direct))
        )
    if used == 0:
        raise click.ClickException("no sampled point could be embedded")

    doc = {
        "entry": loaded.name,
        "matrix": [list(row) for row in grading.matrix],
        "sliced_generators": [
            [g.level, list(g.value)] for g in sliced_semigroup.generators
        ],
        "sliced_body": sliced_body.to_json_dict(),
        "commutation_residual": worst,
        "samples": used,
    }
    text = canonical_json(doc)
    click.echo(text)
    if json_path:
        Path(json_path).write_text(text + "\n", encoding="utf-8")
    if worst >= COMMUTATION_TOLERANCE:
        click.echo(
            "commutation residual %.3g exceeds %.0e" % (worst, COMMUTATION_TOLERANCE),
            err=True,
        )
        ctx.exit(1)


if __name__ == "__main__":
    main()
