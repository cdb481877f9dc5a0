"""Deterministic serialization and the JSON loader."""

import json
import math

import numpy as np
import pytest

from gibbslab import (
    ConfigInvalid,
    InvalidInput,
    dumps_csv,
    dumps_json,
    format_float,
    load_json,
    write_csv,
    write_json,
)

rng = np.random.default_rng(60)


def test_format_float_json_precision_round_trips():
    for _ in range(200):
        value = float(rng.normal() * 10.0 ** rng.integers(-12, 12))
        assert float(format_float(value)) == value
    assert format_float(1.0) == "1.0000000000000000e+00"


def test_format_float_csv_precision():
    text = format_float(math.pi, sig=12)
    assert text == "3.14159265359e+00"


def test_format_float_rejects_non_finite_and_non_numbers():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InvalidInput):
            format_float(bad)
    with pytest.raises(InvalidInput):
        format_float("0.5")


def test_dumps_json_deterministic_and_typed():
    obj = {
        "name": "demo",
        "count": 3,
        "flag": True,
        "missing": None,
        "values": np.array([0.5, 0.25]),
    }
    text = dumps_json(obj)
    assert text == dumps_json(obj)
    parsed = json.loads(text)
    assert parsed["flag"] is True
    assert parsed["missing"] is None
    assert parsed["values"] == [0.5, 0.25]
    with pytest.raises(InvalidInput):
        dumps_json({1: "non-string key"})
    with pytest.raises(InvalidInput):
        dumps_json({"bad": object()})


def test_dumps_csv_cells():
    text = dumps_csv(
        ["name", "value", "ok", "note"],
        [["a", 0.5, True, None], ["b", 2, False, "x"]],
    )
    lines = text.strip().split("\n")
    assert lines[0] == "name,value,ok,note"
    assert lines[1] == "a,5.00000000000e-01,true,"
    assert lines[2] == "b,2,false,x"


def test_dumps_csv_cell_kinds():
    # every kind of cell the CLI writes, numpy scalars and non-finite
    # floats included, one per column
    cells = [0.1, np.float64(-2.5e-300), np.float32(0.5), float("nan"), -math.inf,
             np.bool_(True), np.int64(-7), 12, None, "a,b"]
    text = dumps_csv([f"c{k}" for k in range(len(cells))], [cells])
    assert text.split("\n")[1] == (
        "1.00000000000e-01,-2.50000000000e-300,5.00000000000e-01,nan,-inf,"
        'true,-7,12,,"a,b"'
    )


def test_each_kind_of_column_renders_as_its_cells_did():
    # one column per kind of cell, three rows each, plus a column of floats
    # and None; the text is frozen from the cell-by-cell rules the column
    # formatters replaced
    columns = {
        "none": [None, None, None],
        "bool": [True, False, True],
        "np_bool": [np.bool_(False), np.bool_(True), np.bool_(True)],
        "int": [0, -12345678901234567890, 42],
        "np_int": [np.int64(7), np.int64(-3), np.int32(2**31 - 1)],
        "float": [0.1, -2.5e-300, 1e300],
        "np_float": [np.float64(-0.0), np.float64(123456.7890123456), np.float32(0.1)],
        "non_finite": [math.nan, math.inf, -math.inf],
        "float_or_none": [None, 0.5, np.float64(math.nan)],
        "str": ["a", "", "with space"],
        "comma": ["a,b", 'say "x"', "c"],
    }
    text = dumps_csv(list(columns), zip(*columns.values()))
    assert text == (
        "none,bool,np_bool,int,np_int,float,np_float,non_finite,float_or_none,str,comma\n"
        ',true,false,0,7,1.00000000000e-01,-0.00000000000e+00,nan,,a,"a,b"\n'
        ",false,true,-12345678901234567890,-3,-2.50000000000e-300,1.23456789012e+05,inf,"
        '5.00000000000e-01,,"say ""x"""\n'
        ",true,true,42,2147483647,1.00000000000e+300,1.00000001490e-01,-inf,nan,with space,c\n"
    )


def test_write_helpers_round_trip(tmp_path):
    json_path = str(tmp_path / "obj.json")
    write_json(json_path, {"x": 0.125})
    assert load_json(json_path) == {"x": 0.125}
    csv_path = str(tmp_path / "table.csv")
    write_csv(csv_path, ["a"], [[1.0]])
    with open(csv_path, encoding="utf-8") as handle:
        assert handle.read() == "a\n1.00000000000e+00\n"


def test_load_json_errors(tmp_path):
    with pytest.raises(ConfigInvalid):
        load_json(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigInvalid):
        load_json(str(bad))
