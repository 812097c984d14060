"""Catalog loader: verification on load, tampering, user files."""

import json
import shutil

import pytest
from fractions import Fraction

from okkit.catalog import (
    CatalogError,
    list_examples,
    load_entry_file,
    load_example,
)
from okkit.okounkov import semigroup_hilbert

from oracles import weyl_dimension_gl3
from presentations import ALL_DATA, relation_set_for

NAMES = ("p1", "p1xp1", "elliptic", "gl3-flag", "elliptic-quotient-demo")


def bundled_path(name):
    import okkit.catalog

    return (
        __import__("pathlib").Path(okkit.catalog.__file__).parent
        / "data"
        / ("%s.json" % name)
    )


class TestListing:
    def test_five_entries_in_fixed_order(self):
        rows = list_examples()
        assert tuple(name for name, _ in rows) == NAMES

    def test_descriptions_are_self_contained_sentences(self):
        for _, description in list_examples():
            assert len(description) > 20
            assert description.endswith(".")

    def test_listing_is_deterministic(self):
        assert list_examples() == list_examples()


class TestLoading:
    @pytest.mark.parametrize("name", NAMES)
    def test_every_bundled_entry_loads(self, name):
        entry = load_example(name)
        assert entry.name == name
        assert entry.semigroup.group_complete

    def test_unknown_name_lists_choices(self):
        with pytest.raises(CatalogError, match="p1xp1"):
            load_example("p2")

    @pytest.mark.parametrize("name", ("p1", "p1xp1", "elliptic", "gl3-flag"))
    def test_matches_independent_construction(self, name):
        entry = load_example(name)
        datum = ALL_DATA[name]()
        assert entry.datum.ring == datum.ring
        got = [(g.level, g.index, g.representative, g.value) for g in entry.datum.generators]
        want = [(g.level, g.index, g.representative, g.value) for g in datum.generators]
        assert got == want
        assert entry.relations.relations == relation_set_for(name).relations

    def test_elliptic_invariants(self):
        entry = load_example("elliptic")
        assert sorted((g.level, g.value) for g in entry.semigroup.generators) == [
            (1, (0,)),
            (1, (1,)),
            (1, (3,)),
        ]
        assert sorted(entry.body.vertices) == [(Fraction(0),), (Fraction(3),)]
        assert entry.degree == 3

    def test_gl3_invariants(self):
        entry = load_example("gl3-flag")
        assert entry.degree == 6
        assert len(entry.body.vertices) == 7
        assert semigroup_hilbert(entry.semigroup, 1) == weyl_dimension_gl3((2, 1, 0))

    def test_quotient_demo_slice(self):
        entry = load_example("elliptic-quotient-demo")
        assert entry.grading is not None
        assert entry.grading.matrix == ((-1, 1),)
        assert [g.value for g in entry.sliced_semigroup.generators] == [(1,)]
        assert entry.sliced_body.vertices == ((Fraction(1),),)
        assert entry.sliced_body.dim == 0


class TestTampering:
    def rewrite(self, tmp_path, name, mutate):
        doc = json.loads(bundled_path(name).read_text())
        mutate(doc)
        target = tmp_path / ("%s.json" % name)
        target.write_text(json.dumps(doc))
        return target

    def test_wrong_degree_is_refused_with_both_numbers(self, tmp_path):
        def bump(doc):
            doc["expected"]["degree"] = 4

        path = self.rewrite(tmp_path, "elliptic", bump)
        with pytest.raises(CatalogError, match="degree.*4.*3"):
            load_entry_file(path)

    def test_wrong_semigroup_generator_is_refused(self, tmp_path):
        def swap(doc):
            doc["expected"]["semigroup_generators"][2] = [1, [2]]

        path = self.rewrite(tmp_path, "elliptic", swap)
        with pytest.raises(CatalogError, match="semigroup generators"):
            load_entry_file(path)

    def test_wrong_vertex_is_refused(self, tmp_path):
        def stretch(doc):
            doc["expected"]["body_vertices"][1] = [[4, 1]]

        path = self.rewrite(tmp_path, "p1", stretch)
        with pytest.raises(CatalogError, match="body vertices"):
            load_entry_file(path)

    def test_wrong_sliced_data_is_refused(self, tmp_path):
        def shift(doc):
            doc["homomorphism"]["sliced_vertices"] = [[[2, 1]]]

        path = self.rewrite(tmp_path, "elliptic-quotient-demo", shift)
        with pytest.raises(CatalogError, match="sliced vertices"):
            load_entry_file(path)

    def test_wrong_valuation_is_refused(self, tmp_path):
        def lie(doc):
            doc["generators"][1]["value"] = [2]

        path = self.rewrite(tmp_path, "p1", lie)
        with pytest.raises(CatalogError, match="presentation rejected"):
            load_entry_file(path)

    def test_broken_relation_is_refused(self, tmp_path):
        def corrupt(doc):
            doc["relations"] = ["x1_1*x1_4 - x1_2^2"]

        path = self.rewrite(tmp_path, "p1xp1", corrupt)
        with pytest.raises(CatalogError, match="relations rejected"):
            load_entry_file(path)

    def test_missing_field_is_refused(self, tmp_path):
        def drop(doc):
            del doc["expected"]

        path = self.rewrite(tmp_path, "p1", drop)
        with pytest.raises(CatalogError, match="missing field 'expected'"):
            load_entry_file(path)

    def test_invalid_json_is_refused(self, tmp_path):
        target = tmp_path / "garbage.json"
        target.write_text("{not json")
        with pytest.raises(CatalogError, match="not valid JSON"):
            load_entry_file(target)


class TestUserFiles:
    def test_user_entry_through_same_loader(self, tmp_path):
        doc = {
            "name": "conic",
            "description": "Plane conic from the degree-two sections 1, u, u^2.",
            "ring": ["u"],
            "backend": "monomial",
            "modulus": None,
            "generators": [
                {"level": 1, "index": 1, "representative": "1", "value": [0]},
                {"level": 1, "index": 2, "representative": "u", "value": [1]},
                {"level": 1, "index": 3, "representative": "u^2", "value": [2]},
            ],
            "relations": ["x1_1*x1_3 - x1_2^2"],
            "expected": {
                "semigroup_generators": [[1, [0]], [1, [1]], [1, [2]]],
                "body_vertices": [[[0, 1]], [[2, 1]]],
                "degree": 2,
            },
        }
        target = tmp_path / "conic.json"
        target.write_text(json.dumps(doc))
        entry = load_entry_file(target)
        assert entry.name == "conic"
        assert entry.degree == 2

    def test_bundled_file_verbatim_through_file_loader(self, tmp_path):
        copied = tmp_path / "elliptic.json"
        shutil.copy(bundled_path("elliptic"), copied)
        entry = load_entry_file(copied)
        assert entry.name == "elliptic"

