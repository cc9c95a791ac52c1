"""Set-function file format: keys, both value forms, writer precision."""

import json

import numpy as np
import pytest

from choquet.errors import FileFormatError, GroundSetTooLarge
from choquet.io import (
    dump_document,
    load_set_function,
    mobius_from_document,
    parse_point,
    parse_subset_key,
    set_function_from_document,
    set_function_to_document,
    subset_key,
)
from choquet.setfunction import SetFunction


class TestSubsetKeys:
    def test_empty_set(self):
        assert subset_key(0) == ""
        assert parse_subset_key("", 3) == 0

    def test_ascending_elements(self):
        assert subset_key(0b101) == "1,3"
        assert parse_subset_key("1,3", 3) == 0b101

    def test_round_trip_all_masks(self):
        for mask in range(1 << 4):
            assert parse_subset_key(subset_key(mask), 4) == mask

    def test_unsorted_keys_accepted(self):
        assert parse_subset_key("3,1", 3) == 0b101

    def test_bad_keys(self):
        with pytest.raises(FileFormatError):
            parse_subset_key("0", 3)
        with pytest.raises(FileFormatError):
            parse_subset_key("4", 3)
        with pytest.raises(FileFormatError):
            parse_subset_key("1,1", 3)
        with pytest.raises(FileFormatError):
            parse_subset_key("1,x", 3)


class TestParsePoint:
    def test_basic(self):
        assert parse_point("4,0,2") == (4.0, 0.0, 2.0)

    def test_negative_and_decimal(self):
        assert parse_point("-1.5,2e3") == (-1.5, 2000.0)

    def test_bad_literal(self):
        with pytest.raises(FileFormatError):
            parse_point("1,banana")


class TestDocuments:
    def test_by_mask_form(self):
        f = set_function_from_document({"n": 2, "by_mask": [0, 3, -1, 2]})
        assert f.values.tolist() == [0.0, 3.0, -1.0, 2.0]

    def test_by_subset_form_with_defaults(self):
        f = set_function_from_document({"n": 3, "by_subset": {"1,3": 1, "1,2,3": 1}})
        assert f.value([1, 3]) == 1.0
        assert f.value([2, 3]) == 0.0

    def test_missing_n(self):
        with pytest.raises(FileFormatError):
            set_function_from_document({"by_mask": [0, 1]})

    def test_both_forms_rejected(self):
        with pytest.raises(FileFormatError):
            set_function_from_document({"n": 1, "by_mask": [0, 1], "by_subset": {}})

    def test_neither_form_rejected(self):
        with pytest.raises(FileFormatError):
            set_function_from_document({"n": 1})

    def test_wrong_length(self):
        with pytest.raises(FileFormatError):
            set_function_from_document({"n": 2, "by_mask": [0, 1]})

    def test_bad_n(self):
        with pytest.raises(FileFormatError):
            set_function_from_document({"n": 0, "by_mask": [1]})
        with pytest.raises(FileFormatError):
            set_function_from_document({"n": "two", "by_mask": [0, 1, 1, 1]})

    def test_non_numeric_value(self):
        with pytest.raises(FileFormatError):
            set_function_from_document({"n": 1, "by_mask": [0, "big"]})

    def test_non_finite_value(self):
        with pytest.raises(FileFormatError):
            set_function_from_document({"n": 1, "by_subset": {"1": float("inf")}})

    def test_n_above_bound_rejected_before_sizing(self):
        # 2**40 doubles would be 8 TiB: the bound must be checked first
        doc = {"n": 40, "by_subset": {"1": 1.0}}
        with pytest.raises(GroundSetTooLarge):
            set_function_from_document(doc)
        with pytest.raises(GroundSetTooLarge):
            mobius_from_document(doc)


    @pytest.mark.parametrize("keys", [("1,2", "2,1"), ("1", "01"), ("1", "+1"), ("01", " 1")])
    @pytest.mark.parametrize("build", [set_function_from_document, mobius_from_document])
    def test_two_keys_of_one_subset_rejected(self, build, keys):
        first, second = keys
        doc = {"n": 2, "by_subset": {"": 0.0, first: 1.0, second: 1.0}}
        with pytest.raises(FileFormatError) as info:
            build(doc)
        assert str(info.value) == f"subset key {second!r} names the same subset as {first!r}"


class TestWriter:
    def test_emits_every_subset_key(self):
        doc = set_function_to_document(SetFunction(3, np.arange(8.0)))
        assert list(doc["by_subset"]) == ["", "1", "2", "1,2", "3", "1,3", "2,3", "1,2,3"]

    def test_full_precision_round_trip(self, tmp_path):
        values = [0.0, 0.1 + 0.2, -1 / 3, 1e-17]
        f = SetFunction(2, values)
        path = tmp_path / "f.json"
        dump_document(set_function_to_document(f), path)
        back = load_set_function(path)
        assert back.values.tolist() == f.values.tolist()

    def test_json_is_reparseable(self, tmp_path):
        doc = set_function_to_document(SetFunction(2, [0, 3, -1, 2]))
        path = tmp_path / "g.json"
        dump_document(doc, path)
        assert json.loads(path.read_text()) == doc


def test_load_missing_file(tmp_path):
    with pytest.raises(FileFormatError):
        load_set_function(tmp_path / "does-not-exist.json")


def test_load_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FileFormatError):
        load_set_function(path)
