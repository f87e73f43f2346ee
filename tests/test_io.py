"""CSV/JSON round trips and parse-time rejection."""

import io

import numpy as np
import pytest

import qhm
from qhm.errors import NonFiniteEntryError, ParseError, ShapeError


def test_csv_round_trip_is_exact(assouad):
    buf = io.StringIO()
    qhm.write_csv(assouad, buf)
    back = qhm.read_csv(io.StringIO(buf.getvalue()))
    assert back.dist.tobytes() == assouad.dist.tobytes()


def test_csv_round_trip_random():
    space = qhm.random_metric(6, seed=99)
    buf = io.StringIO()
    qhm.write_csv(space, buf)
    back = qhm.read_csv(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.dist, space.dist)


def test_json_round_trip_with_labels():
    space = qhm.MetricSpace([[0, 1.5], [1.5, 0]], labels=("a", "b"))
    buf = io.StringIO()
    qhm.write_json(space, buf)
    back = qhm.read_json(io.StringIO(buf.getvalue()))
    assert back.labels == ("a", "b")
    assert np.array_equal(back.dist, space.dist)


def test_csv_parse_error_has_position():
    with pytest.raises(ParseError) as exc:
        qhm.read_csv(io.StringIO("0,1\n1,zero\n"))
    assert exc.value.line == 2 and exc.value.column == 2


def test_csv_rejects_nan_and_inf():
    with pytest.raises(NonFiniteEntryError):
        qhm.read_csv(io.StringIO("0,nan\nnan,0\n"))
    with pytest.raises(NonFiniteEntryError):
        qhm.read_csv(io.StringIO("0,inf\ninf,0\n"))


def test_csv_ragged_and_empty():
    with pytest.raises(ShapeError):
        qhm.read_csv(io.StringIO("0,1\n1\n"))
    with pytest.raises(ParseError):
        qhm.read_csv(io.StringIO(""))


def test_json_rejects_nan_constant():
    with pytest.raises(NonFiniteEntryError):
        qhm.read_json(io.StringIO('{"dist": [[0, NaN], [NaN, 0]]}'))
    with pytest.raises(NonFiniteEntryError):
        qhm.read_json(io.StringIO('{"dist": [[0, Infinity], [Infinity, 0]]}'))


def test_json_structure_errors():
    with pytest.raises(ParseError):
        qhm.read_json(io.StringIO("[1, 2]"))
    with pytest.raises(ParseError):
        qhm.read_json(io.StringIO('{"dist": [[0, "x"], ["x", 0]]}'))
    with pytest.raises(ParseError):
        qhm.read_json(io.StringIO('{"dist": [[0, 1], [1, 0]], "labels": [1, 2]}'))
    with pytest.raises(ShapeError):
        qhm.read_json(io.StringIO('{"dist": [[0, 1], [1]]}'))
    with pytest.raises(ParseError):
        qhm.read_json(io.StringIO('{"dist": [[0, 1], [1, 0]'))


def test_load_and_dump_by_extension(tmp_path, star):
    csv_path = tmp_path / "m.csv"
    json_path = tmp_path / "m.json"
    qhm.dump(star, csv_path, fmt="csv")
    qhm.dump(star, json_path, fmt="json")
    assert np.array_equal(qhm.load(csv_path).dist, star.dist)
    assert np.array_equal(qhm.load(json_path).dist, star.dist)


def test_digest_stable_and_distinguishing(star, equilateral):
    assert qhm.matrix_digest(star) == qhm.matrix_digest(star)
    assert qhm.matrix_digest(star) != qhm.matrix_digest(equilateral)


def test_csv_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("\n0,1\n   \n1,0\n\n")
    space = qhm.read_csv(path)
    assert np.array_equal(space.dist, [[0.0, 1.0], [1.0, 0.0]])


def test_a_file_object_is_left_open_and_a_path_is_closed(tmp_path, star):
    for fmt, reader in (("csv", qhm.read_csv), ("json", qhm.read_json)):
        buf = io.StringIO()
        qhm.dump(star, buf, fmt=fmt)
        assert not buf.closed
        buf.seek(0)
        assert np.array_equal(reader(buf).dist, star.dist) and not buf.closed
        path = tmp_path / f"star.{fmt}"
        qhm.dump(star, path, fmt=fmt)
        assert np.array_equal(qhm.load(path).dist, star.dist)
