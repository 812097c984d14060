"""Worked presentations shipped as data and re-derived on load.

Every entry is a JSON file.  Loading one rebuilds the presentation from
its raw fields, recomputes the value semigroup, the body, and the degree,
and compares them against the expectations stored alongside; on any
mismatch the load is refused with a report of every differing field.
The bundled entries and user-written files go through the same loader,
so a file that loads is a file whose claims have been checked.

Entry grammar, one JSON object per file:

    name          string, the entry's identifier
    description   one-line summary shown by list_examples
    ring          list of chart variable names
    laurent       bool, whether the chart ring is Laurent (optional,
                  default false)
    backend       "monomial" or "series"
    series        only with the series backend: {"parameter": str,
                  "assignments": {var: polynomial in the parameter},
                  "implicit": {var: polynomial in the chart ring}}
    modulus       chart relation as a polynomial string (optional)
    generators    list of {"level": int, "index": int,
                  "representative": polynomial string, "value": [int...]}
    relations     list of polynomial strings in the symbols x<level>_<index>
    expected      {"semigroup_generators": [[level, [value...]]...],
                   "body_vertices": [[[num, den]...]...],
                   "degree": int}
    homomorphism  optional {"matrix": [[int...]...],
                   "sliced_generators": like semigroup_generators,
                   "sliced_vertices": like body_vertices}

Other top-level keys are ignored.  Polynomial strings use the same
grammar everywhere else in the package: integer or rational coefficients,
``*`` for products, ``^`` for powers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from okkit.algebra import (
    BiDegree,
    Polynomial,
    Ring,
    SeriesContext,
    parse_polynomial,
)
from okkit.degeneration import RelationSet
from okkit.okounkov import (
    GradingHomomorphism,
    MONOMIAL_BACKEND,
    OkounkovBody,
    SERIES_BACKEND,
    SagbiDatum,
    SagbiGenerator,
    ValueSemigroup,
    okounkov_body,
)
from okkit.okounkov import slice as semigroup_slice

__all__ = [
    "CatalogEntry",
    "CatalogError",
    "list_examples",
    "load_entry_file",
    "load_example",
]

# Listing order of the bundled entries; also the complete set of names.
_BUNDLED = (
    "p1",
    "p1xp1",
    "elliptic",
    "gl3-flag",
    "elliptic-quotient-demo",
)


class CatalogError(Exception):
    """An entry file is malformed or fails its own expectations."""


@dataclass(frozen=True)
class CatalogEntry:
    """A loaded, verified presentation with its derived invariants.

    semigroup, body and degree are re-derived at load time; sliced_semigroup
    and sliced_body are present exactly when the entry carries a grading
    homomorphism.
    """

    name: str
    description: str
    datum: SagbiDatum
    relations: RelationSet
    semigroup: ValueSemigroup
    body: OkounkovBody
    degree: int
    grading: GradingHomomorphism | None = None
    sliced_semigroup: ValueSemigroup | None = None
    sliced_body: OkounkovBody | None = None


def _need(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise CatalogError("%s: missing field %r" % (where, key))
    value = doc[key]
    if not isinstance(value, kind):
        raise CatalogError(
            "%s: field %r must be %s" % (where, key, kind.__name__)
        )
    return value


def _build_datum(doc: dict, where: str) -> SagbiDatum:
    variables = _need(doc, "ring", list, where)
    laurent = "laurent" in doc and _need(doc, "laurent", bool, where)
    ring = Ring(tuple(variables), laurent=laurent)
    backend = _need(doc, "backend", str, where)
    if backend not in (MONOMIAL_BACKEND, SERIES_BACKEND):
        raise CatalogError("%s: unknown backend %r" % (where, backend))

    context = None
    if backend == SERIES_BACKEND:
        series = _need(doc, "series", dict, where)
        parameter = _need(series, "parameter", str, where)
        param_ring = Ring((parameter,))
        assignments = {
            var: parse_polynomial(text, param_ring)
            for var, text in _need(series, "assignments", dict, where).items()
        }
        implicit = {
            var: parse_polynomial(text, ring)
            for var, text in series.get("implicit", {}).items()
        }
        context = SeriesContext(parameter, assignments, implicit=implicit)

    modulus = None
    if doc.get("modulus") is not None:
        modulus = parse_polynomial(_need(doc, "modulus", str, where), ring)

    generators = []
    for row in _need(doc, "generators", list, where):
        if not isinstance(row, dict):
            raise CatalogError("%s: generator rows must be objects" % where)
        generators.append(
            SagbiGenerator(
                _integer(row.get("level"), "a generator level", where),
                _integer(row.get("index"), "a generator index", where),
                parse_polynomial(str(row["representative"]), ring),
                _integers(row.get("value"), None, "a generator value", where),
            )
        )
    return SagbiDatum(
        ring,
        tuple(generators),
        backend=backend,
        series_context=context,
        modulus=modulus,
    )


def _integer(value, what: str, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise CatalogError("%s: %s must hold integers, not %r" % (where, what, value))
    return value


def _row(value, length: int | None, what: str, where: str) -> list:
    """value, which must be a list, of the given length unless that is None."""
    if not isinstance(value, list) or length not in (None, len(value)):
        raise CatalogError(
            "%s: %s must be a list%s, not %r"
            % (where, what, "" if length is None else " of length %d" % length, value)
        )
    return value


def _integers(values, length: int | None, what: str, where: str) -> tuple:
    return tuple(_integer(v, what, where) for v in _row(values, length, what, where))


def _parse_bidegrees(rows, width: int, field: str, where: str) -> tuple:
    """[[level, [value...]]...] with value vectors of the given width."""
    out = []
    for row in rows:
        level, value = _row(row, 2, "each row of " + field, where)
        level = _integer(level, "a level in " + field, where)
        if level < 0:
            raise CatalogError("%s: a level in %s is negative" % (where, field))
        value = _integers(value, width, "a value in " + field, where)
        out.append(BiDegree(level, value))
    return tuple(out)


def _parse_vertices(rows, dim: int, field: str, where: str) -> tuple:
    """[[[num, den]...]...] with vertices of the given dimension."""
    out = []
    for vertex in rows:
        coords = []
        for pair in _row(vertex, dim, "each vertex of " + field, where):
            num, den = _integers(pair, 2, "a coordinate in " + field, where)
            if den == 0:
                raise CatalogError("%s: a denominator in %s is zero" % (where, field))
            coords.append(Fraction(num, den))
        out.append(tuple(coords))
    return tuple(out)


def _parse_matrix(rows, width: int, where: str) -> GradingHomomorphism:
    """The homomorphism matrix: at least one row, each of the given width."""
    if not rows:
        raise CatalogError("%s: the homomorphism matrix has no rows" % where)
    what = "each homomorphism matrix row"
    return GradingHomomorphism(
        tuple(_integers(row, width, what, where) for row in rows)
    )


def _format_bidegrees(gens) -> str:
    return "{" + ", ".join(
        "(%d, %s)" % (g.level, list(g.value)) for g in sorted(gens)
    ) + "}"


def _format_vertices(vertices) -> str:
    return "{" + ", ".join(
        "(" + ", ".join(str(x) for x in v) + ")" for v in sorted(vertices)
    ) + "}"


def _mismatch(problems: list, label: str, stored, derived, fmt):
    """Record "label: file says ..., derivation gives ..." when the stored
    and derived lists differ as sorted lists."""
    if sorted(stored) != sorted(derived):
        problems.append(
            "%s: file says %s, derivation gives %s"
            % (label, fmt(stored), fmt(derived))
        )


def _verify_expectations(doc: dict, datum: SagbiDatum, where: str):
    expected = _need(doc, "expected", dict, where)
    semigroup = datum.semigroup()
    body = okounkov_body(semigroup)
    degree = body.volume * math.factorial(body.ambient_dim)

    problems = []
    n = body.ambient_dim
    want_gens = _parse_bidegrees(
        _need(expected, "semigroup_generators", list, where), n,
        "semigroup_generators", where,
    )
    _mismatch(
        problems, "semigroup generators", want_gens, semigroup.generators,
        _format_bidegrees,
    )
    want_vertices = _parse_vertices(
        _need(expected, "body_vertices", list, where), n, "body_vertices", where
    )
    _mismatch(
        problems, "body vertices", want_vertices, body.vertices, _format_vertices
    )
    want_degree = _integer(
        _need(expected, "degree", int, where), "the expected degree", where
    )
    if Fraction(want_degree) != degree:
        problems.append(
            "degree: file says %d, derivation gives %s" % (want_degree, degree)
        )
    if not semigroup.group_complete:
        problems.append(
            "semigroup generators do not span the full lattice of"
            " (level, value) pairs"
        )
    return semigroup, body, degree, problems


def _verify_grading(doc: dict, semigroup, body, where: str):
    block = doc.get("homomorphism")
    if block is None:
        return None, None, None, []
    if not isinstance(block, dict):
        raise CatalogError("%s: homomorphism must be an object" % where)
    n = body.ambient_dim
    grading = _parse_matrix(_need(block, "matrix", list, where), n + 1, where)
    try:
        sliced_semigroup, sliced_body = semigroup_slice(semigroup, body, grading)
    except OverflowError as exc:
        raise CatalogError("%s: homomorphism rejected: %s" % (where, exc)) from exc
    problems = []
    want_gens = _parse_bidegrees(
        _need(block, "sliced_generators", list, where), n, "sliced_generators", where
    )
    _mismatch(
        problems, "sliced generators", want_gens, sliced_semigroup.generators,
        _format_bidegrees,
    )
    want_vertices = _parse_vertices(
        _need(block, "sliced_vertices", list, where), n, "sliced_vertices", where
    )
    _mismatch(
        problems, "sliced vertices", want_vertices, sliced_body.vertices,
        _format_vertices,
    )
    return grading, sliced_semigroup, sliced_body, problems


def _load_document(doc: dict, where: str) -> CatalogEntry:
    if not isinstance(doc, dict):
        raise CatalogError("%s: an entry file holds one JSON object" % where)
    name = _need(doc, "name", str, where)
    description = _need(doc, "description", str, where)

    try:
        datum = _build_datum(doc, where)
    except CatalogError:
        raise
    except Exception as exc:
        raise CatalogError("%s: presentation rejected: %s" % (where, exc)) from exc

    symbol_ring = datum.symbol_ring
    try:
        relations = RelationSet(
            datum,
            tuple(
                parse_polynomial(text, symbol_ring)
                for text in _need(doc, "relations", list, where)
            ),
        )
    except CatalogError:
        raise
    except Exception as exc:
        raise CatalogError("%s: relations rejected: %s" % (where, exc)) from exc

    semigroup, body, degree, problems = _verify_expectations(doc, datum, where)
    grading, sliced_s, sliced_b, more = _verify_grading(
        doc, semigroup, body, where
    )
    problems += more
    if problems:
        raise CatalogError(
            "%s: stored expectations disagree with the derivation:\n  %s"
            % (where, "\n  ".join(problems))
        )

    return CatalogEntry(
        name=name,
        description=description,
        datum=datum,
        relations=relations,
        semigroup=semigroup,
        body=body,
        degree=int(degree),
        grading=grading,
        sliced_semigroup=sliced_s,
        sliced_body=sliced_b,
    )


def load_entry_file(path) -> CatalogEntry:
    """Load and verify one entry from a JSON file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise CatalogError("%s: not valid JSON: %s" % (path, exc)) from exc
    return _load_document(doc, str(path))


def load_example(name: str) -> CatalogEntry:
    """Load one of the bundled entries by name."""
    if name not in _BUNDLED:
        raise CatalogError(
            "no bundled entry %r; choose from %s" % (name, ", ".join(_BUNDLED))
        )
    text = (
        resources.files("okkit.catalog").joinpath("data/%s.json" % name).read_text()
    )
    entry = _load_document(json.loads(text), "bundled entry %r" % name)
    if entry.name != name:
        raise CatalogError(
            "bundled entry file %r declares name %r" % (name, entry.name)
        )
    return entry


def list_examples() -> tuple:
    """Names and descriptions of the bundled entries, in a fixed order."""
    rows = []
    for name in _BUNDLED:
        text = (
            resources.files("okkit.catalog")
            .joinpath("data/%s.json" % name)
            .read_text()
        )
        doc = json.loads(text)
        rows.append((name, doc.get("description", "")))
    return tuple(rows)
