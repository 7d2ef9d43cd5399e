import os
import subprocess
import sys

import pytest

import femtonet
from femtonet.cli import EXIT_INPUT_ERROR, EXIT_OK, main

FIG8_SMALL = ["--trials", "3", "--set", "sweep.session_counts = 20"]


def _femtonet(*argv):
    """Run the CLI in a fresh interpreter, so an uncaught error shows as a
    traceback on stderr."""
    src = os.path.dirname(os.path.dirname(femtonet.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "femtonet.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_list(capsys):
    assert main(["list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "fig6-cac" in out and "table-5.1" in out


def test_run_fig8_csv(tmp_path, capsys):
    code = main(["run", "fig8-popularity", "--seed", "3", "--trials", "4",
                 "--out", str(tmp_path),
                 "--set", "sweep.session_counts = 10,25"])
    assert code == EXIT_OK
    out_path = capsys.readouterr().out.strip()
    assert out_path.endswith("fig8-popularity.csv")
    lines = open(out_path).read().splitlines()
    assert lines[0] == "scenario,scheme,x,metric,value,stderr,seed"
    assert len(lines) > 4


def test_run_determinism_byte_identical(tmp_path):
    args = ["run", "fig8-popularity", "--seed", "11", "--trials", "4",
            "--set", "sweep.session_counts = 20,30"]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    a = open(tmp_path / "a" / "fig8-popularity.csv", "rb").read()
    b = open(tmp_path / "b" / "fig8-popularity.csv", "rb").read()
    assert a == b


def test_run_unknown_experiment(tmp_path, capsys):
    assert main(["run", "fig99", "--out", str(tmp_path)]) == EXIT_INPUT_ERROR
    assert "error" in capsys.readouterr().err


def test_run_bad_override(tmp_path, capsys):
    code = main(["run", "fig8-popularity", "--out", str(tmp_path),
                 "--set", "bogus.key = 1"])
    assert code == EXIT_INPUT_ERROR


def test_run_negative_arrival_rate_is_input_error(tmp_path, capsys):
    code = main(["run", "fig6-cac", "--out", str(tmp_path),
                 "--set", "traffic.arrival_grid=-0.5"])
    assert code == EXIT_INPUT_ERROR
    assert "error" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_validate_ok_and_bad(tmp_path, capsys):
    good = tmp_path / "ok.scenario"
    good.write_text("name = demo\npreset = table-6.1\n")
    assert main(["validate", str(good)]) == EXIT_OK
    assert "demo" in capsys.readouterr().out

    bad = tmp_path / "bad.scenario"
    bad.write_text("nonsense == 3\n")
    assert main(["validate", str(bad)]) == EXIT_INPUT_ERROR


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/path.scenario"]) == EXIT_INPUT_ERROR


def test_emit_round_trip(tmp_path, capsys):
    main(["run", "fig8-popularity", "--seed", "5", "--trials", "3",
          "--out", str(tmp_path), "--set", "sweep.session_counts = 25"])
    capsys.readouterr()
    csv_path = tmp_path / "fig8-popularity.csv"
    assert main(["emit", str(csv_path), "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out.endswith(".gnuplot")
    assert os.path.exists(out)


def test_emit_bad_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    assert main(["emit", str(bad), "--out", str(tmp_path)]) == EXIT_INPUT_ERROR


def test_run_plot_script_format(tmp_path, capsys):
    code = main(["run", "fig8-popularity", "--trials", "3", "--format", "both",
                 "--out", str(tmp_path), "--set", "sweep.session_counts = 20"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert ".csv" in out and ".gnuplot" in out


def test_run_out_names_a_file_is_input_error(tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    proc = _femtonet("run", "fig8-popularity", *FIG8_SMALL, "--out", str(blocker))
    assert proc.returncode == EXIT_INPUT_ERROR
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_emit_out_names_a_file_is_input_error(tmp_path):
    assert main(["run", "fig8-popularity", *FIG8_SMALL, "--out", str(tmp_path)]) == EXIT_OK
    blocker = tmp_path / "taken"
    blocker.write_text("")
    proc = _femtonet("emit", str(tmp_path / "fig8-popularity.csv"), "--out", str(blocker))
    assert proc.returncode == EXIT_INPUT_ERROR
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
