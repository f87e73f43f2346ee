"""End-to-end CLI behaviour: exit codes, JSON output, reproducibility."""

import json

import numpy as np
import pytest

import qhm
from qhm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def assouad_csv(tmp_path):
    path = tmp_path / "assouad5.csv"
    qhm.dump(qhm.make_fixture("assouad5"), path, fmt="csv")
    return str(path)


def test_gen_validate_round_trip(capsys, tmp_path):
    path = str(tmp_path / "eq.csv")
    code, _, _ = run(capsys, "gen", "equilateral3_6", "--out", path)
    assert code == 0
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    assert "3 points" in out


def test_gen_to_stdout_json(capsys):
    code, out, _ = run(capsys, "gen", "star_1_2", "--format", "json")
    assert code == 0
    assert json.loads(out)["dist"][0] == [0, 1, 1, 1]


def test_validate_asymmetry_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1\n1.25,0\n")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "asymmetry at (0,1)" in err


def test_validate_triangle_exit_3(capsys, tmp_path):
    path = tmp_path / "tri.csv"
    path.write_text("0,1,3\n1,0,1\n3,1,0\n")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 3
    assert "triangle" in err


def test_validate_parse_and_nonfinite_codes(capsys, tmp_path):
    path = tmp_path / "parse.csv"
    path.write_text("0,x\nx,0\n")
    assert run(capsys, "validate", str(path))[0] == 7
    path.write_text("0,nan\nnan,0\n")
    assert run(capsys, "validate", str(path))[0] == 6


def test_usage_errors_exit_1(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    capsys.readouterr()
    assert run(capsys, "gen", "no_such_fixture")[0] == 1
    code, _, err = run(capsys, "validate", str(tmp_path / "missing.csv"))
    assert code == 1 and "error:" in err


def test_report_equilateral(capsys, tmp_path):
    path = str(tmp_path / "eq.csv")
    qhm.dump(qhm.make_fixture("equilateral3_6"), path)
    code, out, _ = run(capsys, "report", path)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["m_report"]["m_value"] - 4.0) < 1e-9
    assert abs(doc["m_report"]["m_plus"] - 4.0) < 1e-9
    assert doc["classification"]["strictly_quasihypermetric"]["holds"] is True
    assert abs(doc["cross_checks"]["m_vs_sphere"]["discrepancy"]) < 1e-9


def test_report_assouad(capsys, assouad_csv):
    code, out, _ = run(capsys, "report", assouad_csv, "--hyper-bound", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["m_report"]["m_value"] == "inf"
    assert doc["classification"]["hypermetric_up_to_bound"]["holds"] is False
    assert doc["classification"]["hypermetric_up_to_bound"]["witness"] == [1, -1, -1, 1, 1]
    assert doc["embedding"]["sphere"] is None
    assert doc["m_report"]["m_plus"] is None


def test_report_star_and_round_trip(capsys, tmp_path):
    path = str(tmp_path / "star.csv")
    qhm.dump(qhm.make_fixture("star_1_2"), path)
    code, out, _ = run(capsys, "report", path)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["m_report"]["m_value"] - 1.5) < 1e-9
    assert abs(doc["m_report"]["m_plus"] - 4.0 / 3.0) < 1e-6
    assert doc["m_report"]["unique_maximal"] is True
    # re-running with the recorded tolerances reproduces the document
    space = qhm.load(path)
    tol = qhm.Tolerances.from_dict(doc["tolerances"])
    rebuilt = qhm.build_report(space, hyper_bound=doc["hyper_bound"], tol=tol)
    rebuilt["input_path"] = path
    assert rebuilt == doc


def test_report_multiple_files_with_jobs(capsys, tmp_path):
    paths = []
    for name in ("equilateral3_6", "star_1_2"):
        p = str(tmp_path / f"{name}.csv")
        qhm.dump(qhm.make_fixture(name), p)
        paths.append(p)
    code, out, _ = run(capsys, "report", *paths)
    assert code == 0
    docs = json.loads(out)
    assert [d["input_path"] for d in docs] == paths


def test_report_out_file(capsys, assouad_csv, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "report", assouad_csv, "--out", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["n"] == 5


def test_classify_command(capsys, assouad_csv):
    code, out, _ = run(capsys, "classify", assouad_csv, "--hyper-bound", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["quasihypermetric"]["holds"] is True
    assert doc["strictly_quasihypermetric"]["holds"] is False
    assert doc["matrix_rank"] == 5


def test_m_and_mplus_and_embed_commands(capsys, tmp_path):
    path = str(tmp_path / "star.csv")
    qhm.dump(qhm.make_fixture("star_1_2"), path)
    code, out, _ = run(capsys, "m", path)
    assert code == 0
    assert abs(json.loads(out)["m_value"] - 1.5) < 1e-9
    code, out, _ = run(capsys, "mplus", path)
    assert code == 0
    assert abs(json.loads(out)["m_plus"] - 4.0 / 3.0) < 1e-6
    code, out, _ = run(capsys, "embed", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 3
    assert abs(doc["sphere"]["radius"] ** 2 - 0.75) < 1e-9


def test_mplus_on_infinite_space_exits_15(capsys, assouad_csv):
    code, _, err = run(capsys, "mplus", assouad_csv)
    assert code == 15
    assert "error:" in err


def test_approx_command(capsys):
    code, out, err = run(
        capsys, "approx", '{"kind":"interval","length":1}', "--max-n", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["m_values"] == [0.5]
    assert "M" in err  # the human table goes to stderr
    assert run(capsys, "approx", "not json")[0] == 1


def test_approx_circle_command(capsys):
    code, out, _ = run(
        capsys, "approx", '{"kind":"circle","circumference":8}', "--max-n", "16"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["monotone_ok"] is True
    assert 1.95 <= doc["m_values"][-1] <= 2.0 + 1e-9


def test_tolerance_overrides_flag_and_env(capsys, tmp_path, monkeypatch):
    path = str(tmp_path / "eq.csv")
    qhm.dump(qhm.make_fixture("equilateral3_6"), path)
    code, out, _ = run(capsys, "report", path, "--tol", "rank=1e-12")
    assert json.loads(out)["tolerances"]["rank"] == 1e-12
    monkeypatch.setenv("QHM_TOL_FW_MAX_ITER", "5000")
    code, out, _ = run(capsys, "report", path)
    assert json.loads(out)["tolerances"]["fw_max_iter"] == 5000
    # flags win over the environment
    code, out, _ = run(capsys, "report", path, "--tol", "fw_max_iter=700")
    assert json.loads(out)["tolerances"]["fw_max_iter"] == 700
    assert run(capsys, "report", path, "--tol", "bogus=1")[0] == 1


def test_validate_json_format(capsys, tmp_path):
    path = str(tmp_path / "m.json")
    qhm.dump(qhm.MetricSpace([[0, 2], [2, 0]], labels=("p", "q")), path, fmt="json")
    code, out, _ = run(capsys, "validate", path)
    assert code == 0


def test_deterministic_report_output(capsys, assouad_csv):
    _, out1, _ = run(capsys, "report", assouad_csv)
    _, out2, _ = run(capsys, "report", assouad_csv)
    assert out1 == out2


def test_module_entry_point(assouad_csv):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "qhm", "validate", assouad_csv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "5 points" in proc.stdout


def test_out_of_memory_is_exit_10_without_traceback(capsys, monkeypatch, assouad_csv):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 128. GiB for an array")

    monkeypatch.setattr(qhm.cli, "build_report", exhausted)
    code, out, err = run(capsys, "report", assouad_csv)
    assert code == 10
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("descriptor", ["[1,2]", '"circle"'])
def test_approx_non_object_descriptor_is_exit_18(capsys, descriptor):
    code, out, err = run(capsys, "approx", descriptor)
    assert code == 18
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_integral_tolerance_for_int_field(capsys, tmp_path, monkeypatch):
    path = str(tmp_path / "star.csv")
    qhm.dump(qhm.make_fixture("star_1_2"), path)
    code, out, _ = run(capsys, "mplus", path, "--tol", "fw_max_iter=1e5")
    assert code == 0 and json.loads(out)["m_plus"] > 0
    monkeypatch.setenv("QHM_TOL_FW_MAX_ITER", "2e3")
    code, out, _ = run(capsys, "report", path)
    assert code == 0 and json.loads(out)["tolerances"]["fw_max_iter"] == 2000
    for argv in (["--tol", "fw_max_iter=1.5"], []):
        monkeypatch.setenv("QHM_TOL_FW_MAX_ITER", "1.5" if not argv else "2e3")
        code, out, err = run(capsys, "mplus", path, *argv)
        assert code == 1 and out == ""
        assert "fw_max_iter" in err and "int" in err and err.count("\n") == 1


@pytest.mark.parametrize("pair", ["pos=-1", "pos=nan", "hyper_budget=-5"])
def test_invalid_tolerance_is_exit_1_naming_the_key(capsys, monkeypatch, pair):
    key, raw = pair.split("=")
    argv = ["approx", '{"kind":"interval","length":1}', "--max-n", "3"]
    for extra, env in ((["--tol", pair], None), ([], raw)):
        if env is not None:
            monkeypatch.setenv("QHM_TOL_" + key.upper(), env)
        code, out, err = run(capsys, *argv, *extra)
        assert code == 1 and out == ""
        assert err.startswith(f"error: tolerance '{key}'") and err.count("\n") == 1
        assert "descriptor" not in err


@pytest.mark.parametrize("points", ["[[0,1],[1]]", "[[],[]]", "[[0,1],[1,2,3]]"])
def test_approx_ragged_points_is_exit_18(capsys, points):
    code, out, err = run(capsys, "approx", f'{{"kind":"euclidean_pointcloud","points":{points}}}', "--max-n", "2")
    assert code == 18
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "inhomogeneous" not in err


def test_one_parser_serves_every_call_as_a_fresh_run(capsys, tmp_path):
    path = str(tmp_path / "star.csv")
    qhm.dump(qhm.make_fixture("star_1_2"), path)
    qhm.cli.build_parser.cache_clear()

    def calls():
        with pytest.raises(SystemExit) as exc:
            main(["report", path, "--hyper-bound", "x"])
        usage = (exc.value.code, capsys.readouterr())
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        version = (exc.value.code, capsys.readouterr())
        return usage, version, run(capsys, "report", path)

    first = calls()
    again = calls()
    assert qhm.cli.build_parser.cache_info().misses == 1
    assert first == again
    (usage_code, usage), (version_code, version), (code, out, err) = again
    assert usage_code == 1 and "invalid int value" in usage.err and usage.out == ""
    assert version_code == 0 and version.out == f"qhm {qhm.__version__}\n"
    assert code == 0 and err == "" and json.loads(out)["m_report"]["m_plus"] > 0


@pytest.mark.parametrize("error", [ZeroDivisionError("division by zero"), RuntimeError("boom")])
def test_unexpected_exception_is_exit_10_without_traceback(capsys, monkeypatch, tmp_path, error):
    path = str(tmp_path / "star.csv")
    qhm.dump(qhm.make_fixture("star_1_2"), path)

    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(qhm.cli, "compute_m", broken)
    monkeypatch.setattr(qhm.report, "compute_m", broken)
    for command in ("m", "report"):
        code, out, err = run(capsys, command, path)
        assert code == 10
        assert out == ""
        assert err == f"error: internal error: {type(error).__name__}: {error}\n"


def test_report_carries_the_m_plus_certificate(capsys, tmp_path, assouad_csv):
    path = str(tmp_path / "star.csv")
    qhm.dump(qhm.make_fixture("star_1_2"), path)
    doc = json.loads(run(capsys, "report", path)[1])
    cert = doc["m_report"]["m_plus_certificate"]
    assert cert["support"] == [1, 2, 3]  # the hub carries no mass
    assert cert["max_outside_potential"] == pytest.approx(1.0, abs=1e-12)
    assert abs(cert["gap"]) <= qhm.Tolerances().fw_tol(2.0)
    infinite = json.loads(run(capsys, "report", assouad_csv)[1])["m_report"]
    assert infinite["m_plus_certificate"] is None
    assert json.loads(run(capsys, "m", path)[1])["m_plus_certificate"] is None
    # on seeded spaces the potential is M+ on the support and at most M+ off it
    rng = np.random.default_rng(41)
    for n in range(2, 9):
        space = qhm.from_euclidean(rng.normal(size=(n, 2)))
        rep = qhm.build_report(space)["m_report"]
        cert, m_plus = rep["m_plus_certificate"], rep["m_plus"]
        level = space.dist @ qhm.mconstant.maximize_energy_over_probability(space).weights
        assert np.allclose(level[cert["support"]], m_plus, rtol=1e-12)
        outside = np.delete(level, cert["support"])
        assert (cert["max_outside_potential"] is None) == (outside.size == 0)
        if outside.size:
            assert cert["max_outside_potential"] == outside.max() <= m_plus
