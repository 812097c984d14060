"""Command line behavior: exit codes, canonical output, config files."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import okkit
from okkit.cli import _hull_2d, body_svg, canonical_json, main
from okkit.catalog import list_examples, load_example


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


# ---------------------------------------------------------------------------
# canonical serialization


class TestCanonicalJson:
    def test_keys_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_float_rendering(self):
        assert canonical_json(0.1) == "0.10000000000000001"
        assert canonical_json(1.0) == "1"
        assert canonical_json(-2.5e-300) == "-2.5e-300"

    def test_scalars(self):
        assert canonical_json([True, False, None, 7]) == "[true,false,null,7]"

    def test_fraction_becomes_pair(self):
        assert canonical_json(Fraction(3, 7)) == "[3,7]"

    def test_tuple_matches_list(self):
        assert canonical_json((1, 2)) == canonical_json([1, 2])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))

    def test_rejects_non_string_keys(self):
        with pytest.raises(ValueError):
            canonical_json({1: "x"})

    def test_round_trips_through_json(self):
        doc = {"x": [1.5, {"y": None}], "z": "text"}
        assert json.loads(canonical_json(doc)) == doc


class TestHull:
    def test_square_cycle(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)]
        hull = _hull_2d(pts)
        assert len(hull) == 4
        assert (0.5, 0.5) not in hull

    def test_collinear(self):
        hull = _hull_2d([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
        assert (0.0, 0.0) in hull and (2.0, 2.0) in hull


# ---------------------------------------------------------------------------
# body


class TestBody:
    def test_p1_json_exact(self, runner):
        result = invoke(runner, "body", "p1")
        assert result.exit_code == 0
        assert result.output.strip() == (
            '{"body":{"dim":1,"facets":[{"normal":[-1],"offset":[0,1]},'
            '{"normal":[1],"offset":[1,1]}],"vertices":[[[0,1]],[[1,1]]],'
            '"volume":[1,1]},"degree":1,"entry":"p1",'
            '"semigroup_generators":[[1,[0]],[1,[1]]]}'
        )

    def test_elliptic_values(self, runner):
        result = invoke(runner, "body", "elliptic")
        doc = json.loads(result.output)
        assert doc["degree"] == 3
        assert doc["body"]["vertices"] == [[[0, 1]], [[3, 1]]]
        assert doc["body"]["volume"] == [3, 1]

    def test_reruns_are_byte_identical(self, runner):
        first = invoke(runner, "body", "gl3-flag")
        second = invoke(runner, "body", "gl3-flag")
        assert first.output == second.output

    def test_json_file_matches_stdout(self, runner, tmp_path):
        target = tmp_path / "out.json"
        result = invoke(runner, "body", "p1xp1", "--json", str(target))
        assert target.read_text() == result.output

    def test_svg_segment_for_1d(self, runner, tmp_path):
        target = tmp_path / "body.svg"
        invoke(runner, "body", "elliptic", "--svg", str(target))
        text = target.read_text()
        assert "<svg" in text and "<line" in text

    def test_svg_polygon_for_2d(self, runner, tmp_path):
        target = tmp_path / "body.svg"
        invoke(runner, "body", "p1xp1", "--svg", str(target))
        assert "<polygon" in target.read_text()

    def test_svg_projection_for_3d(self, runner, tmp_path):
        target = tmp_path / "body.svg"
        invoke(runner, "body", "gl3-flag", "--svg", str(target))
        text = target.read_text()
        assert "<polygon" in text and "largest variance" in text

    def test_svg_deterministic(self, runner, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        invoke(runner, "body", "gl3-flag", "--svg", str(a))
        invoke(runner, "body", "gl3-flag", "--svg", str(b))
        assert a.read_text() == b.read_text()

    def test_unknown_entry_exits_2(self, runner):
        result = runner.invoke(main, ["body", "nonsense"])
        assert result.exit_code == 2
        assert "nonsense" in result.stderr

    def test_user_file_accepted(self, runner, tmp_path):
        import okkit.catalog as cat

        bundled = Path(cat.__file__).parent / "data" / "p1.json"
        copy = tmp_path / "mine.json"
        copy.write_text(bundled.read_text())
        result = invoke(runner, "body", str(copy))
        assert result.exit_code == 0
        assert json.loads(result.output)["entry"] == "p1"

    def test_leftover_flow_block_is_ignored(self, runner, tmp_path):
        # flow settings are not part of an entry, even ones FlowConfig refuses
        import okkit.catalog as cat

        source = Path(cat.__file__).parent / "data" / "p1.json"
        doc = json.loads(source.read_text())
        doc["flow"] = {"epsilon": 0.5, "delta": 0.9}
        path = tmp_path / "old-flow.json"
        path.write_text(json.dumps(doc))
        result = invoke(runner, "body", str(path))
        assert result.exit_code == 0
        assert result.output == invoke(runner, "body", str(source)).output


# (entry, path into the document, replacement): malformed expectations
# that must be refused with exit 2, not end in an exception
MALFORMED = [
    ("p1xp1", ("expected", "semigroup_generators", 0), None),
    ("p1xp1", ("expected", "semigroup_generators", 0), []),
    ("p1xp1", ("expected", "semigroup_generators", 0, 0), -1),
    ("p1xp1", ("expected", "semigroup_generators", 0, 1, 0), "x"),
    ("p1xp1", ("expected", "semigroup_generators", 0, 1), [0]),
    ("p1xp1", ("expected", "body_vertices", 0), None),
    ("p1xp1", ("expected", "body_vertices", 0, 0), 0.5),
    ("p1xp1", ("expected", "body_vertices", 0, 0, 1), 0),
    ("elliptic", ("expected", "semigroup_generators", 1, 1, 0), {}),
    ("elliptic", ("expected", "body_vertices", 1, 0, 0), "3"),
    ("elliptic-quotient-demo", ("homomorphism", "matrix"), []),
    ("elliptic-quotient-demo", ("homomorphism", "matrix", 0), [-1, 1, 0]),
    ("elliptic-quotient-demo", ("homomorphism", "matrix", 0, 0), "x"),
    ("elliptic-quotient-demo", ("homomorphism", "matrix", 0, 0), 10**30),
    ("elliptic-quotient-demo", ("homomorphism", "matrix", 0, 0), 2**62),
    ("elliptic-quotient-demo", ("homomorphism", "sliced_generators", 0, 1), [None]),
    ("elliptic-quotient-demo", ("homomorphism", "sliced_vertices", 0, 0), [1]),
]


def _malformed_id(case):
    name, path, value = case
    return "%s:%s=%s" % (name, "/".join(map(str, path[1:])), json.dumps(value))


@pytest.mark.parametrize(
    "name, path, value", MALFORMED, ids=map(_malformed_id, MALFORMED)
)
def test_malformed_expectations_exit_2(runner, tmp_path, name, path, value):
    import okkit.catalog as cat

    source = Path(cat.__file__).parent / "data" / (name + ".json")
    doc = json.loads(source.read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, ["body", str(bad)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


# (path into p1.json, replacement): generator fields and flags that a
# lenient parse would coerce; each must be refused with exit 2
LENIENT = [
    (("generators", 1, "value"), [1.9]),
    (("generators", 1, "level"), True),
    (("generators", 1, "index"), 2.0),
    (("laurent",), 1),
]


@pytest.mark.parametrize(
    "path, value", LENIENT, ids=["%s=%s" % (p[-1], json.dumps(v)) for p, v in LENIENT]
)
def test_generator_fields_and_flags_parse_strictly(runner, tmp_path, path, value):
    import okkit.catalog as cat

    doc = json.loads((Path(cat.__file__).parent / "data" / "p1.json").read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = tmp_path / "lenient.json"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, ["body", str(bad)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


def _bundled(name):
    import okkit.catalog as cat

    return json.loads((Path(cat.__file__).parent / "data" / (name + ".json")).read_text())


def _field_paths(node, path=()):
    """Every path into a JSON document, to containers and leaves alike."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


FUZZ_FIELDS = [
    (name, path) for name, _ in list_examples() for path in _field_paths(_bundled(name))
]
DELETE = "<delete the field>"
FUZZ_VALUES = [DELETE, None, True, 1.5, -1, "x", [], {}, [1.9], 10**30]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FUZZ_FIELDS), st.sampled_from(FUZZ_VALUES))
def test_mutated_entry_ends_with_an_exit_code(tmp_path_factory, field, value):
    name, path = field
    doc = _bundled(name)
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    entry = tmp_path_factory.mktemp("fuzz") / "mutated.json"
    entry.write_text(json.dumps(doc))
    for command in ("body", "degenerate"):
        result = CliRunner().invoke(main, [command, str(entry)])
        assert result.exit_code in (0, 1, 2)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output


ENTRY_NAMES = [name for name, _ in list_examples()] + ["no-such-entry"]
GRADED_ENTRIES = [name for name, _ in list_examples() if load_example(name).grading is not None]
SAMPLES = ["1", "2", "0", "-1", "x"]
# valid values first, so that shrinking heads for a run that gets going
FLOW_FLAGS = {
    "--epsilon": ["0.5", "0.9", "0.1", "0", "1", "-1", "nan", "x"],
    "--delta": ["1e-4", "0.01", "1e-8", "0", "1e-300", "0.6", "x"],
    "--seed": ["0", "7", str(2**70), "-1", "x"],
    "--spread": ["0", "1", "3", "-2", "100", "150", "1e308", "-inf", "x"],
}
MATRIX_ROWS = st.one_of(
    st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=4), min_size=1, max_size=2),
    st.lists(
        st.lists(
            st.one_of(st.integers(-3, 3), st.sampled_from([10**30, 1.5, True, "x", None])),
            max_size=4,
        ),
        max_size=3,
    ),
)


def _ends_with_an_exit_code(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1, 2), args
    assert result.exception is None or isinstance(result.exception, SystemExit), args
    assert "Traceback" not in result.output
    return result


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(ENTRY_NAMES),
    st.sampled_from(SAMPLES),
    st.fixed_dictionaries(
        {}, optional={flag: st.sampled_from(texts) for flag, texts in FLOW_FLAGS.items()}
    ),
)
def test_flow_flags_end_with_an_exit_code(entry, samples, flags):
    args = ["flow", entry, "--samples", samples]
    for flag, text in flags.items():
        args += [flag, text]
    _ends_with_an_exit_code(args)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(ENTRY_NAMES),
    st.one_of(st.none(), st.just("{not json"), st.fixed_dictionaries({"matrix": MATRIX_ROWS})),
    st.booleans(),
)
def test_slice_flags_end_with_an_exit_code(tmp_path_factory, entry, homomorphism, write_json):
    where = tmp_path_factory.mktemp("slice")
    args = ["slice", entry]
    if homomorphism is not None:
        hom = where / "hom.json"
        text = homomorphism if isinstance(homomorphism, str) else json.dumps(homomorphism)
        hom.write_text(text)
        args += ["--homomorphism", str(hom)]
    if write_json:
        args += ["--json", str(where / "out.json")]
    result = _ends_with_an_exit_code(args)
    if homomorphism is None and entry in GRADED_ENTRIES:
        # a bundled entry sliced by its own grading: nothing above is refused
        assert result.exit_code == 0, args
        if write_json:
            assert (where / "out.json").read_text() == result.output


class TestBodySvgUnits:
    def test_one_marker_per_vertex(self):
        body = load_example("p1").body
        picture = body_svg(body)
        assert picture.count("<circle") == 2


# ---------------------------------------------------------------------------
# degenerate


class TestDegenerate:
    def test_elliptic_family(self, runner):
        result = invoke(runner, "degenerate", "elliptic")
        doc = json.loads(result.output)
        assert doc["functional"] == [14, -2]
        assert doc["weights"] == [14, 12, 8]
        assert doc["family"] == ["x1_1^2*x1_3 - x1_2^3 - x1_3^3*tau^12"]
        assert doc["initial_forms"] == ["x1_1^2*x1_3 - x1_2^3"]

    def test_p1_has_no_relations(self, runner):
        result = invoke(runner, "degenerate", "p1")
        doc = json.loads(result.output)
        assert doc["relations"] == [] and doc["family"] == []

    def test_output_file(self, runner, tmp_path):
        target = tmp_path / "fam.json"
        result = invoke(runner, "degenerate", "gl3-flag", "--json", str(target))
        assert target.read_text() == result.output


# ---------------------------------------------------------------------------
# flow


class TestFlow:
    def test_p1_five_samples(self, runner, tmp_path):
        csv_path = tmp_path / "run.csv"
        diag_path = tmp_path / "diag.json"
        result = invoke(
            runner, "flow", "p1", "--samples", "5",
            "--csv", str(csv_path), "--diagnostics", str(diag_path),
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["succeeded"] == 5 and doc["total"] == 5
        assert diag_path.read_text() == result.output
        header = csv_path.read_text().splitlines()[0]
        assert header == "sample_id,s,t_re,t_im,chart,residual,Impi,ReLinErr,F_1"

    def test_values_in_unit_interval(self, runner):
        result = invoke(runner, "flow", "p1", "--samples", "8", "--seed", "3")
        doc = json.loads(result.output)
        for sample in doc["samples"]:
            assert sample["ok"]
            assert -1e-6 <= sample["F"][0] <= 1 + 1e-6

    def test_deterministic(self, runner):
        first = invoke(runner, "flow", "p1xp1", "--samples", "3", "--seed", "11")
        second = invoke(runner, "flow", "p1xp1", "--samples", "3", "--seed", "11")
        assert first.output == second.output

    def test_sample_i_independent_of_count(self, runner):
        few = json.loads(invoke(runner, "flow", "p1", "--samples", "2").output)
        many = json.loads(invoke(runner, "flow", "p1", "--samples", "4").output)
        assert few["samples"][0]["F"] == many["samples"][0]["F"]
        assert few["samples"][1]["F"] == many["samples"][1]["F"]

    def test_zero_samples_is_usage_error(self, runner):
        result = runner.invoke(main, ["flow", "p1", "--samples", "0"])
        assert result.exit_code == 2

    def test_bad_window_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["flow", "p1", "--epsilon", "0.1", "--delta", "0.5"]
        )
        assert result.exit_code == 2

    def test_delta_below_floor_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["flow", "elliptic", "--samples", "2", "--delta", "1e-300"]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "smallest supported cutoff" in result.stderr

    def test_level_two_entry_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["flow", _level_two_entry(tmp_path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.splitlines() == [
            "cannot flow level-two: " + _LEVEL_TWO_REASON
        ]


_LEVEL_TWO_REASON = "generator x2_1 has level 2; only level-one generators embed"


def _level_two_entry(tmp_path):
    """A valid entry with a generator above level one, which does not embed."""
    doc = {
        "name": "level-two",
        "description": "The affine line through 1, u^2 and the level-two u^3.",
        "ring": ["u"],
        "backend": "monomial",
        "modulus": None,
        "generators": [
            {"level": 1, "index": 1, "representative": "1", "value": [0]},
            {"level": 1, "index": 2, "representative": "u^2", "value": [2]},
            {"level": 2, "index": 1, "representative": "u^3", "value": [3]},
        ],
        "relations": ["x2_1^2 - x1_1*x1_2^3"],
        "expected": {
            "semigroup_generators": [[1, [0]], [1, [2]], [2, [3]]],
            "body_vertices": [[[0, 1]], [[2, 1]]],
            "degree": 2,
        },
    }
    path = tmp_path / "level-two.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# check


class TestCheck:
    def test_single_entry_passes(self, runner):
        result = invoke(runner, "check", "p1xp1")
        assert result.exit_code == 0
        assert "overall: PASS" in result.output
        assert "FAIL" not in result.output

    def test_flag_entry_runs_flow_probe(self, runner):
        result = invoke(runner, "check", "gl3-flag")
        assert result.exit_code == 0
        probe = [line for line in result.output.splitlines() if "flow probe" in line]
        assert len(probe) == 1 and "PASS" in probe[0]

    def test_level_two_entry_skips_flow_probe(self, runner, tmp_path):
        entry = _level_two_entry(tmp_path)
        assert invoke(runner, "body", entry).exit_code == 0
        result = invoke(runner, "check", entry)
        assert result.exit_code == 0
        assert result.output.splitlines()[2:4] == [
            "  moment containment       SKIP  skipped: " + _LEVEL_TWO_REASON,
            "  flow probe               SKIP  skipped: " + _LEVEL_TWO_REASON,
        ]

    def test_too_large_basis_ends_without_a_traceback(self, runner, tmp_path):
        # a redundant level-7 generator: the entry loads and slices, but
        # nothing embeds
        import okkit.catalog as cat

        doc = json.loads(
            (Path(cat.__file__).parent / "data" / "p1.json").read_text()
        )
        doc["generators"].append(
            {"level": 7, "index": 1, "representative": "u^7", "value": [7]}
        )
        doc["relations"] = ["x7_1 - x1_2^7"]
        doc["expected"]["semigroup_generators"].append([7, [7]])
        entry = tmp_path / "redundant.json"
        entry.write_text(json.dumps(doc))
        hom = tmp_path / "hom.json"
        hom.write_text(json.dumps({"matrix": [[-1, 2]]}))
        reason = "generator x7_1 has level 7; only level-one generators embed"
        assert invoke(runner, "body", str(entry)).exit_code == 0
        flowed = invoke(runner, "flow", str(entry), "--samples", "2")
        assert flowed.exit_code == 2
        assert flowed.stderr.splitlines() == ["cannot flow p1: " + reason]
        sliced = invoke(runner, "slice", str(entry), "--homomorphism", str(hom))
        assert sliced.exit_code == 0 and not sliced.stderr
        assert json.loads(sliced.output)["sliced_generators"] == [[2, [1]]]
        checked = invoke(runner, "check", str(entry))
        assert checked.exit_code == 0
        assert checked.output.splitlines()[1:] == [
            "  subduction residuals     PASS  5 random products",
            "  moment containment       SKIP  skipped: " + reason,
            "  flow probe               SKIP  skipped: " + reason,
            "overall: PASS",
        ]
        for result in (flowed, sliced, checked):
            assert "Traceback" not in result.output + result.stderr

    def test_tampered_file_fails(self, runner, tmp_path):
        import okkit.catalog as cat

        doc = json.loads(
            (Path(cat.__file__).parent / "data" / "p1.json").read_text()
        )
        doc["expected"]["degree"] = 5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(main, ["check", str(bad)])
        assert result.exit_code == 1
        assert "FAIL" in result.output


# ---------------------------------------------------------------------------
# slice


class TestSlice:
    def test_demo_entry(self, runner):
        result = invoke(runner, "slice", "elliptic-quotient-demo")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["matrix"] == [[-1, 1]]
        assert doc["sliced_generators"] == [[1, [1]]]
        assert doc["sliced_body"]["vertices"] == [[[1, 1]]]
        assert sorted(doc) == ["entry", "matrix", "sliced_body", "sliced_generators"]

    def test_zero_matrix_keeps_body(self, runner, tmp_path):
        hom = tmp_path / "zero.json"
        hom.write_text('{"matrix": [[0, 0, 0]]}')
        result = invoke(runner, "slice", "p1xp1", "--homomorphism", str(hom))
        assert result.exit_code == 0
        doc = json.loads(result.output)
        full = json.loads(invoke(runner, "body", "p1xp1").output)
        assert doc["sliced_body"] == full["body"]

    def test_builds_no_family_or_basis(self, runner, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("slice built a family or a basis")

        with mock.patch("okkit.cli.build_family", refuse), \
                mock.patch("okkit.cli.enumerate_vd_basis", refuse):
            for name, matrix in GOLDEN_GRADINGS.items():
                args = ["slice", name]
                if matrix is not None:
                    hom = tmp_path / ("%s.json" % name)
                    hom.write_text(json.dumps({"matrix": matrix}))
                    args += ["--homomorphism", str(hom)]
                assert invoke(runner, *args).exit_code == 0

    def test_entry_without_grading_needs_flag(self, runner):
        result = runner.invoke(main, ["slice", "p1"])
        assert result.exit_code == 2
        assert "homomorphism" in result.stderr

    def test_wrong_matrix_width_rejected(self, runner, tmp_path):
        hom = tmp_path / "wide.json"
        hom.write_text('{"matrix": [[1, 2, 3, 4]]}')
        result = runner.invoke(main, ["slice", "p1", "--homomorphism", str(hom)])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "text", ['{"matrix": [[1.5, 0, 0]]}', '{"matrix": [[true, 0, 0]]}', "[[1, 0, 0]]"]
    )
    def test_non_integer_matrix_rejected(self, runner, tmp_path, text):
        hom = tmp_path / "lenient.json"
        hom.write_text(text)
        result = runner.invoke(main, ["slice", "p1xp1", "--homomorphism", str(hom)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    def test_incomplete_slice_warns_in_one_line(self, tmp_path):
        # a real process, so a raw Python warning would reach its stderr;
        # u = k / 3 has its first kernel element at level 3, past bound 2
        hom = tmp_path / "steep.json"
        hom.write_text('{"matrix": [[-1, 3]]}')
        env = dict(os.environ, PYTHONPATH=str(Path(okkit.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "okkit.cli", "slice", "p1", "--homomorphism", str(hom)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0
        lines = result.stderr.splitlines()
        assert lines == [
            "warning: sliced semigroup generators (bound 2) may be incomplete"
            " for the kernel lattice"
        ]
        assert "okounkov.py" not in result.stderr
        assert "semigroup_slice(" not in result.stderr

    def test_malformed_homomorphism_file(self, runner, tmp_path):
        hom = tmp_path / "junk.json"
        hom.write_text('{"rows": 3}')
        result = runner.invoke(main, ["slice", "p1", "--homomorphism", str(hom)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("value", [10**30, 2**62])
    def test_oversized_matrix_is_usage_error(self, runner, tmp_path, value):
        hom = tmp_path / "oversized.json"
        hom.write_text(json.dumps({"matrix": [[value, -1]]}))
        result = runner.invoke(main, ["slice", "elliptic", "--homomorphism", str(hom)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and "homomorphism rejected" in errors[0]
        assert "Traceback" not in result.output


# ---------------------------------------------------------------------------
# config files


class TestConfig:
    def test_defaults_applied(self, runner, tmp_path):
        cfg = tmp_path / "okkit.cfg"
        cfg.write_text("# comment line\nsamples = 3\nseed = 11\n\n")
        result = invoke(runner, "--config", str(cfg), "flow", "p1xp1")
        doc = json.loads(result.output)
        assert doc["total"] == 3
        direct = invoke(
            runner, "flow", "p1xp1", "--samples", "3", "--seed", "11"
        )
        assert result.output == direct.output

    def test_flag_beats_config(self, runner, tmp_path):
        cfg = tmp_path / "okkit.cfg"
        cfg.write_text("samples = 3\n")
        result = invoke(
            runner, "--config", str(cfg), "flow", "p1", "--samples", "2"
        )
        assert json.loads(result.output)["total"] == 2

    def test_unknown_key_rejected(self, runner, tmp_path):
        cfg = tmp_path / "okkit.cfg"
        cfg.write_text("volume = 9\n")
        result = runner.invoke(main, ["--config", str(cfg), "body", "p1"])
        assert result.exit_code == 2
        assert "unknown key" in result.stderr

    def test_missing_equals_rejected(self, runner, tmp_path):
        cfg = tmp_path / "okkit.cfg"
        cfg.write_text("samples 3\n")
        result = runner.invoke(main, ["--config", str(cfg), "body", "p1"])
        assert result.exit_code == 2

    def test_bad_value_rejected(self, runner, tmp_path):
        cfg = tmp_path / "okkit.cfg"
        cfg.write_text("samples = soon\n")
        result = runner.invoke(main, ["--config", str(cfg), "body", "p1"])
        assert result.exit_code == 2

    def test_zero_config_samples_rejected(self, runner, tmp_path):
        cfg = tmp_path / "okkit.cfg"
        cfg.write_text("samples = 0\n")
        result = runner.invoke(main, ["--config", str(cfg), "flow", "p1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args, config",
        [
            (["flow", "p1", "--seed", "-1"], None),
            (["flow", "p1", "--spread", "inf"], None),
            (["flow", "p1", "--spread", "nan"], None),
            (["flow", "elliptic", "--spread", "150"], None),
            (["flow", "elliptic", "--spread", "-3"], None),
            (["flow", "p1"], "seed = -1\n"),
            (["slice", "elliptic-quotient-demo"], "seed = -1\n"),
            (["flow", "p1"], "spread = inf\n"),
            (["flow", "p1"], "spread = nan\n"),
            (["flow", "elliptic"], "spread = -3\n"),
        ],
        ids=[
            "flag-seed-flow", "flag-spread-inf", "flag-spread-nan", "flag-spread-huge",
            "flag-spread-negative", "config-seed-flow", "config-seed-slice", "config-spread-inf",
            "config-spread-nan", "config-spread-negative",
        ],
    )
    def test_out_of_range_setting_is_usage_error(self, runner, tmp_path, args, config):
        if config is not None:
            cfg = tmp_path / "okkit.cfg"
            cfg.write_text(config)
            args = ["--config", str(cfg)] + args
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1

    def test_threads_key_rejected(self, runner, tmp_path):
        cfg = tmp_path / "okkit.cfg"
        cfg.write_text("threads = 2\n")
        result = runner.invoke(main, ["--config", str(cfg), "flow", "p1"])
        assert result.exit_code == 2
        assert "unknown key 'threads'" in result.stderr


# ---------------------------------------------------------------------------
# golden outputs of the exact layer

# The grading each entry is sliced by (None: the entry's own).
GOLDEN_GRADINGS = {
    "p1": [[-1, 2]],
    "p1xp1": [[-1, 1, 1]],
    "elliptic": [[-3, 1]],
    "elliptic-quotient-demo": None,
    "gl3-flag": [[-2, 1, 1, 1]],
}

# SHA-256 of the canonical JSON file each command writes with --json,
# recorded before the exact layer moved to integer numerators (the slice
# rows once slice had stopped sampling), so that a one-byte change in an
# exact output fails here.
GOLDEN_SHA256 = {
    ('body', 'elliptic'): "5cdc5b6cc7873a0625244cfbdf6d1f6f48ac3aa17d06f561865ba0bbb24db437",
    ('body', 'elliptic-quotient-demo'): "5c479592aa90b47917151877300e6f57beb7f9da8eb5863d6deaa0bdf773df91",
    ('body', 'gl3-flag'): "e50772da8a01e00e7678c95bf172b380a1a99918a683a127171a7d0af118ebcd",
    ('body', 'p1'): "460661ebe94eabdf7056392bcf31674e349b4b2dc049d95c0ee148a593ce6e61",
    ('body', 'p1xp1'): "717a6e3f2907d248b6aab581f61f128b381d6d2380fe48294221fbd695a939cf",
    ('degenerate', 'elliptic'): "9e4ecb422e9c9a8fb0ee84d0d025ab496078293847ed664756fb4d0662eb9113",
    ('degenerate', 'elliptic-quotient-demo'): "d782cf1614a94ac365ce43049c7a13ceb965d20ed61f113c349c3050d7e6dcc5",
    ('degenerate', 'gl3-flag'): "d01d688b772febf03038cd6247368d417eb9a7885c9bf3b88881754120f9a83b",
    ('degenerate', 'p1'): "bb098e33d32ae141c832d664898f0cb1a628ee08b1c65c39ba6e4766ce89b716",
    ('degenerate', 'p1xp1'): "9a50d9333517076af132ac1fc636c5263f1a7f79c5dc84f31d615cb495d43da7",
    ('slice', 'elliptic'): "c3d2ae6a030930b46d5d1ac217f1bc3a45de9cd799cfbcaf9481a2fccb337aab",
    ('slice', 'elliptic-quotient-demo'): "a28abcb763f529b6fbd708d4f6c086edbb6a6c789424d77e402102e122cc5ace",
    ('slice', 'gl3-flag'): "115dbd28b80bfa9f5cefdd696be0f09fefcf5afb27c2e2ac848f4d07a22301a0",
    ('slice', 'p1'): "f0554e281520b754f0a7a4ac30e9441558dae7fe566691c8e3c3230d6eacb576",
    ('slice', 'p1xp1'): "c70654307b03e1434f488f1b94b8c4f73325fcce702ea00486bed9229c6710df",
}


@pytest.mark.parametrize("command, entry", sorted(GOLDEN_SHA256))
def test_exact_outputs_match_golden_hashes(runner, tmp_path, command, entry):
    target = tmp_path / "out.json"
    args = [command, entry, "--json", str(target)]
    if command == "slice" and GOLDEN_GRADINGS[entry] is not None:
        hom = tmp_path / "grading.json"
        hom.write_text(json.dumps({"matrix": GOLDEN_GRADINGS[entry]}))
        args += ["--homomorphism", str(hom)]
    result = invoke(runner, *args)
    assert result.exit_code == 0 and not result.stderr
    text = target.read_text(encoding="utf-8")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_SHA256[command, entry]
