import hashlib
import json
from dataclasses import dataclass

import numpy as np
import pytest

from qst_control.ga import HaltReason
from qst_control.reporting import format_value, record_columns, sha256_file, write_csv, write_json, write_manifest


def test_format_value_floats_round_trip():
    for x in (0.1, 1e-05, 1 / 3, 0.996662479035540, float("nan"), -0.0):
        text = format_value(x)
        if x == x:
            assert float(text) == x
        else:
            assert text == "nan"
    assert format_value(np.float64(0.25)) == "0.25"


def test_format_value_other_types():
    assert format_value(42) == "42"
    assert format_value(np.int64(-3)) == "-3"
    assert format_value(True) == "true"
    assert format_value(np.bool_(False)) == "false"
    assert format_value("free") == "free"
    assert format_value(None) == ""
    assert format_value(HaltReason.SATURATION) == "saturation"
    with pytest.raises(TypeError):
        format_value({"a": 1})


def test_write_csv_exact_bytes(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, {"a": [1, 2], "b": [0.5, 0.25]})
    assert path.read_bytes() == b"a,b\n1,0.5\n2,0.25\n"


def test_write_csv_rerun_is_byte_identical(tmp_path):
    columns = {"i": range(50), "x": [i / 7 for i in range(50)], "name": [f"row{i}" for i in range(50)]}
    p1 = write_csv(tmp_path / "a.csv", columns)
    p2 = write_csv(tmp_path / "b.csv", columns)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", {"a": [1, 2], "b": [0.5]})


def test_record_columns_name_every_field_without_a_record(tmp_path):
    @dataclass
    class Cell:
        p: float
        n_runs: int

    assert record_columns(Cell, [Cell(0.5, 3), Cell(0.25, 4)]) == {"p": [0.5, 0.25], "n_runs": [3, 4]}
    assert write_csv(tmp_path / "t.csv", record_columns(Cell, [])).read_bytes() == b"p,n_runs\n"


def test_write_json_sorted_and_numpy_friendly(tmp_path):
    path = write_json(
        tmp_path / "t.json",
        {"b": np.arange(3), "a": np.float64(0.5), "c": np.bool_(True), "d": HaltReason.TARGET_REACHED},
    )
    text = path.read_text()
    assert text.endswith("\n")
    data = json.loads(text)
    assert data == {"a": 0.5, "b": [0, 1, 2], "c": True, "d": "target_reached"}
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')


def test_sha256_file(tmp_path):
    path = tmp_path / "blob.bin"
    payload = b"0123456789" * 1000
    path.write_bytes(payload)
    assert sha256_file(path) == hashlib.sha256(payload).hexdigest()


def test_write_manifest(tmp_path):
    csv_path = write_csv(tmp_path / "data.csv", {"x": [1]})
    manifest_path = write_manifest(tmp_path, {"data": csv_path}, {"seed": 7, "mode": "ga"})
    manifest = json.loads(manifest_path.read_text())
    entry = manifest["artifacts"]["data"]
    assert entry["path"] == "data.csv"
    assert entry["sha256"] == sha256_file(csv_path)
    assert entry["bytes"] == csv_path.stat().st_size
    assert manifest["seed"] == 7
    assert manifest["mode"] == "ga"
