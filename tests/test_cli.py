import glob
import hashlib
import math
import os
import subprocess
import sys

import pytest

import femtonet
from femtonet import experiments
from femtonet.cli import EXIT_INPUT_ERROR, EXIT_OK, main
from femtonet.experiments import (
    DEFAULT_PRESET,
    check_scenario,
    result_to_csv,
    run_experiment,
    run_experiments,
)
from femtonet.scenario import SCENARIO_KEYS, Scenario, scenario_from_preset

FIG8_SMALL = ["--trials", "3", "--set", "sweep.session_counts = 20"]
ROOT = os.path.dirname(os.path.dirname(__file__))


def _read_pins() -> dict[str, dict[str, str]]:
    """The rows of every tests/data/*.sha256 file, as case -> {CSV name:
    sha256}.  A case is the pin file's stem, then `/<dir>` for a CSV that
    is recorded under a directory."""
    pins = {}
    for pin_file in glob.glob(os.path.join(ROOT, "tests", "data", "*.sha256")):
        stem = os.path.basename(pin_file).removesuffix(".sha256")
        with open(pin_file, encoding="utf-8") as fh:
            for line in fh:
                digest, path = line.split()
                directory, _, name = path.rpartition("/")
                pins.setdefault(f"{stem}/{directory}" if directory else stem, {})[name] = digest
    return pins


PINS = _read_pins()


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
    # --seed and --trials win over --set
    main(args + ["--set", "seed = 2", "--set", "trials = 1", "--out", str(tmp_path / "c")])
    a = open(tmp_path / "a" / "fig8-popularity.csv", "rb").read()
    b = open(tmp_path / "b" / "fig8-popularity.csv", "rb").read()
    c = open(tmp_path / "c" / "fig8-popularity.csv", "rb").read()
    assert a == b == c


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


@pytest.mark.parametrize("argv, named", [
    (["fig4-outage", "--trials", "-1"], "trials"),
    (["fig8-popularity", "--trials", "-2"], "trials"),
    (["fig8-popularity", "--seed", "-1", "--trials", "2",
      "--set", "sweep.session_counts = 5"], "seed"),
    (["fig8-popularity", "--set", "sweep.session_counts=0"], "sweep.session_counts"),
    (["fig4-outage", "--set", "sweep.femto_counts=0"], "sweep.femto_counts"),
    (["fig5-mobility", "--set", "sweep.femto_counts=100.5"], "sweep.femto_counts"),
    # zero trials must not skip the sweep-count check
    (["fig8-popularity", "--trials", "0", "--set", "sweep.session_counts=0"],
     "sweep.session_counts"),
])
def test_run_bad_trials_or_sweep_count_is_input_error(tmp_path, argv, named):
    proc = _femtonet("run", *argv, "--out", str(tmp_path))
    assert proc.returncode == EXIT_INPUT_ERROR
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert named in proc.stderr
    assert not os.listdir(tmp_path)


HUGE = "9" * 400  # an int that no float holds


@pytest.mark.parametrize("key, experiment, named", [
    ("traffic.femto_capacity_calls", "fig5-mobility", "femto_capacity"),
    ("topology.macro_ue_walls", "fig4-outage", "macro_ue_walls"),
    ("topology.inter_femto_walls", "fig5-neighborlist", "inter_femto_walls"),
    ("traffic.macro_base_states", "fig5-mobility", "macro_base_states"),
    ("traffic.macro_adaptive_states", "fig5-mobility", "macro_adaptive_states"),
])
def test_an_int_past_the_float_range_is_input_error(tmp_path, capsys, key, experiment, named):
    # in process, an uncaught OverflowError (the traceback the CLI printed)
    # fails the test
    path = tmp_path / "huge.scenario"
    path.write_text(f"name = huge\n{key} = {HUGE}\n")
    validate = main(["validate", str(path)])
    validate_err = capsys.readouterr().err
    run = main(["run", experiment, "--set", f"{key}={HUGE}", "--out", str(tmp_path / "out")])
    run_err = capsys.readouterr().err
    assert validate == run == EXIT_INPUT_ERROR
    assert validate_err == run_err == (f"error: {named} must be a whole number within the "
                                       f"float range, got {HUGE}\n")


def test_a_trial_count_past_the_float_range_is_input_error(tmp_path, capsys):
    code = main(["run", "fig5-neighborlist", "--trials", HUGE, "--out", str(tmp_path)])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == (f"error: trials must be a whole number within the "
                                       f"float range, got {HUGE}\n")
    assert not os.listdir(tmp_path)


def test_zero_trials_leaves_an_analytic_figure_unchanged(tmp_path, capsys):
    # fig5-mobility never reads the trial count, so it writes its default CSV
    assert main(["run", "fig5-mobility", "--trials", "0", "--out", str(tmp_path)]) == EXIT_OK
    data = open(capsys.readouterr().out.strip(), "rb").read()
    assert hashlib.sha256(data).hexdigest() == PINS["default_csvs"]["fig5-mobility.csv"]


def test_validate_ok_and_bad(tmp_path, capsys):
    good = tmp_path / "ok.scenario"
    good.write_text("name = demo\npreset = table-6.1\n")
    assert main(["validate", str(good)]) == EXIT_OK
    assert "demo" in capsys.readouterr().out

    bad = tmp_path / "bad.scenario"
    bad.write_text("nonsense == 3\n")
    assert main(["validate", str(bad)]) == EXIT_INPUT_ERROR


def test_a_name_with_a_comma_fails_validate_and_run(tmp_path, capsys):
    # the name once passed validate, and run then wrote rows of 8 fields
    path = tmp_path / "comma.scenario"
    path.write_text("name = dense, test\n")
    assert main(["validate", str(path)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == (f"invalid: {path}:1:7: bad value for name: a name may "
                                       f"not hold a comma or a line break, got 'dense, test'\n")
    out = tmp_path / "out"
    assert main(["run", "fig8-popularity", "--out", str(out), "--set", "name=dense, test",
                 *FIG8_SMALL]) == EXIT_INPUT_ERROR
    assert "a name may not hold a comma" in capsys.readouterr().err
    assert not out.exists()


def test_emit_names_a_row_of_too_many_fields(tmp_path, capsys):
    bad = tmp_path / "fig8-popularity.csv"
    bad.write_text("scenario,scheme,x,metric,value,stderr,seed\n"
                   "dense, test,equal,20,satisfaction_avg,1.0,0.0,7\n")
    assert main(["emit", str(bad), "--out", str(tmp_path)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: CSV line 2: 8 fields, expected 7\n"


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/path.scenario"]) == EXIT_INPUT_ERROR


@pytest.mark.parametrize("line, experiment", [
    ("topology.min_separation_m = -1", "fig4-outage"),
    ("trials = -1", "fig4-outage"),
    ("traffic.arrival_grid = 0.4, -0.5", "fig6-cac"),
    ("traffic.mean_call_duration_s = 0", "fig5-mobility"),
    ("traffic.femto_dwell_s = 1e-320", "fig5-mobility"),
    ("traffic.mean_call_duration_s = inf", "fig6-cac"),
    ("traffic.mean_call_duration_s = inf", "fig7-mbs"),
    ("sweep.femto_counts = 2.5", "fig5-mobility"),
    ("sweep.femto_counts = -1", "fig5-mobility"),
    ("traffic.femto_capacity_calls = -1", "fig5-mobility"),
    ("sweep.session_counts = 0", "fig8-popularity"),
    # more sessions than the capacity holds at beta_min, with or without trials
    ("sweep.session_counts = 10, 1000", "fig8-popularity"),
    ("trials = 0\nsweep.session_counts = 1000", "fig8-popularity"),
    ("spectrum.femto_fraction = 1.5", "fig4-outage"),
    ("spectrum.total_hz = 0", "fig4-outage"),
    ("spectrum.total_hz = inf", "fig4-outage"),
    ("spectrum.total_hz = inf", "fig4-throughput"),
    ("seed = -1", "fig8-popularity"),
    ("neighborlist.s_t1_dbm = -95", "fig5-neighborlist"),
    ("neighborlist.d_max_m = nan", "fig5-neighborlist"),
    ("neighborlist.d_max_m = 0", "fig5-neighborlist"),
    ("neighborlist.obstruction_prob = 1.5", "fig5-neighborlist"),
    # zero trials must not skip fig5-neighborlist's checks
    ("trials = 0\nneighborlist.s_t1_dbm = -95", "fig5-neighborlist"),
    ("trials = 0\nneighborlist.d_max_m = nan", "fig5-neighborlist"),
    ("trials = 0\nneighborlist.d_max_m = 0", "fig5-neighborlist"),
    ("trials = 0\nneighborlist.obstruction_prob = 1.5", "fig5-neighborlist"),
    # nor fig4's
    ("trials = 0\ntopology.min_separation_m = -1", "fig4-outage"),
    ("trials = 0\nspectrum.femto_fraction = 1.5", "fig4-outage"),
    ("trials = 0\nspectrum.total_hz = 0", "fig4-outage"),
    # fig7-mbs checks its grid as fig6-cac and validate do
    ("traffic.arrival_grid = nan", "fig7-mbs"),
    ("traffic.arrival_grid = -1", "fig7-mbs"),
    ("traffic.arrival_grid = inf", "fig6-cac"),
    ("radio.sir_threshold_db = nan", "fig4-outage"),
    ("radio.sir_threshold_db = inf", "fig4-outage"),
    ("radio.sir_cap_db = nan", "fig4-outage"),
    ("radio.tx_power_macro_w = inf", "fig4-outage"),
    ("radio.tx_power_femto_w = nan", "fig5-neighborlist"),
    ("radio.ue_fap_distance_m = 0", "fig4-outage"),
    ("topology.macro_ue_walls = -3", "fig4-outage"),
    ("topology.inter_femto_walls = -1", "fig5-neighborlist"),
    ("spectrum.edge_fraction = nan", "fig4-outage"),
    ("spectrum.edge_fraction = -1", "fig4-outage"),
    ("traffic.alpha = nan", "fig5-mobility"),
    ("traffic.alpha = -0.5", "fig5-mobility"),
    ("traffic.guard_fraction = 2", "fig6-cac"),
    # keys that used to be named by the field derived from them, or not at all
    ("traffic.capacity_kbps = nan", "fig6-cac"),
    ("traffic.capacity_kbps = inf", "fig6-cac"),
    ("traffic.capacity_kbps = 1", "fig6-cac"),
    ("traffic.total_arrival_per_s = -1", "fig5-mobility"),
    ("traffic.arrival_density_ratio = -1", "fig5-mobility"),
    # the two-tier radii are read through the macro geometry
    ("topology.macro_radius_m = 0", "fig5-mobility"),
    ("topology.femto_radius_m = nan", "fig5-mobility"),
    ("topology.macro_radius_m = inf", "fig4-outage"),
    # femtocell 0 sits at 200 m, outside a 150 m disc
    ("topology.macro_radius_m = 150\nsweep.femto_counts = 100", "fig4-outage"),
    ("topology.macro_radius_m = 150\nsweep.femto_counts = 100", "fig5-neighborlist"),
    # every swept count's coverage fraction is checked before any solve
    ("preset = table-5.1\nsweep.femto_counts = 20000", "fig5-mobility"),
])
@pytest.mark.filterwarnings("error")  # a warning would have reached stderr
def test_validate_rejects_what_run_rejects(tmp_path, capsys, line, experiment):
    # in process, an uncaught exception fails the test instead of printing
    path = tmp_path / "bad.scenario"
    path.write_text(f"name = bad\n{line}\n")
    validate = main(["validate", str(path)])
    validate_err = capsys.readouterr().err
    run = main(["run", experiment, "--scenario", str(path), "--out", str(tmp_path / "out")])
    run_err = capsys.readouterr().err
    assert validate == run == EXIT_INPUT_ERROR
    assert validate_err.startswith("error: ") and validate_err.count("\n") == 1
    assert validate_err == run_err


def _drift_cases():
    """Every key but the name, the preset, the trial count and the sweep
    counts, at values outside what some reader accepts."""
    bad = {float: (math.nan, math.inf, -1.0, 0.0), int: (-1,)}
    for key, (kind, _) in SCENARIO_KEYS.items():
        if key not in ("name", "preset", "trials") and not key.startswith("sweep."):
            for value in bad.get(kind, ((math.nan,), (math.inf,), (-1.0,))):
                yield key, value


def _rejection(call):
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def test_validate_and_every_experiment_agree_on_each_key():
    # validate either accepts a value that every experiment runs, or rejects
    # it with the message of each experiment that rejects it (one at least)
    drift = []
    for key, value in _drift_cases():
        scenario = Scenario({key: value, "trials": 0})
        message = _rejection(lambda: check_scenario(scenario))
        runs = {name: _rejection(lambda: run_experiment(name, scenario))
                for name in experiments.EXPERIMENTS}
        rejected = {name: m for name, m in runs.items() if m is not None}
        if (message is None and rejected) or (message is not None and (
                not rejected or set(rejected.values()) != {message})):
            drift.append((key, value, message, rejected))
    assert drift == []


@pytest.mark.parametrize("experiment, key", [
    ("fig5-mobility", "traffic.mean_call_duration_s"),
    ("fig5-mobility", "traffic.femto_dwell_s"),
    ("fig6-cac", "traffic.macro_dwell_s"),
])
def test_zero_duration_is_input_error(tmp_path, experiment, key):
    proc = _femtonet("run", experiment, "--set", f"{key}=0", "--out", str(tmp_path))
    assert proc.returncode == EXIT_INPUT_ERROR
    assert proc.stderr == f"error: {key} must be > 0, got 0.0\n"
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("experiment, dwell, message", [
    ("fig6-cac", "1e-15", "the dwell rate eta = 999999999999999.9 makes p_h round to 1"),
    ("fig5-mobility", "1e-300",
     "the macrocell dwell rate eta_m = 9.999999999999999e+299 makes P_mm round to 1"),
])
def test_a_dwell_so_short_that_every_call_hands_over_is_input_error(tmp_path, experiment,
                                                                   dwell, message):
    # both fixed points used to stop with a ZeroDivisionError traceback
    proc = _femtonet("run", experiment, "--set", f"traffic.macro_dwell_s={dwell}",
                     "--out", str(tmp_path))
    assert proc.returncode == EXIT_INPUT_ERROR
    assert proc.stderr == f"error: {message}\n"
    assert not os.listdir(tmp_path)


def test_infinite_dwell_means_no_mobility():
    scenario = Scenario({"traffic.macro_dwell_s": float("inf")})
    assert scenario.ch6_params(1.0).eta == 0.0


def test_infinite_dwell_scenario_validates(tmp_path):
    path = tmp_path / "still.scenario"
    path.write_text("name = still\npreset = table-6.1\ntraffic.macro_dwell_s = inf\n")
    proc = _femtonet("validate", str(path))
    assert proc.returncode == EXIT_OK, proc.stderr


@pytest.mark.parametrize("key", ["traffic.macro_dwell_s", "traffic.femto_dwell_s"])
def test_fig5_mobility_runs_with_infinite_dwell(tmp_path, key):
    proc = _femtonet("run", "fig5-mobility", "--set", f"{key}=inf", "--out", str(tmp_path))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert os.listdir(tmp_path) == ["fig5-mobility.csv"]


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


def test_run_fig4_pair_sweeps_once(tmp_path, capsys, monkeypatch):
    """Both fig4 names in one run read one radio sweep; the pinned default
    run checks the bytes of both CSVs."""
    sweeps = []
    real_sweep = experiments._radio_sweep
    monkeypatch.setattr(experiments, "_radio_sweep",
                        lambda *a: sweeps.append(a) or real_sweep(*a))
    assert main(["run", "fig4-throughput", "fig4-outage", "--out", str(tmp_path)]) == EXIT_OK
    assert len(sweeps) == 1
    paths = capsys.readouterr().out.split()
    assert [os.path.basename(p) for p in paths] == ["fig4-throughput.csv", "fig4-outage.csv"]


def _sets(*lines):
    return [arg for line in lines for arg in ("--set", line)]


def _dense(seed, *lines):
    return ["fig4-throughput", "fig4-outage", "--scenario",
            os.path.join(ROOT, "scenarios", "dense-frequency-reuse.scenario"),
            "--trials", "2", "--seed", str(seed), *_sets(*lines)]


FIG8_COUNTS = "sweep.session_counts = 1, 2, 16, 17, 31, 44, 50"

# the `femtonet run` arguments of every recorded case, keyed as in PINS
PINNED_RUNS = {
    # every experiment at its default preset; the fig4 pair shares one sweep
    "default_csvs": list(DEFAULT_PRESET),
    # at S_T0 = -65 dBm the clear-link detection reach is 28 m, below the
    # 40 m d_max, so hidden entries beyond the reach are listed unheard
    "fig5_short_reach_csvs": ["fig5-neighborlist", "--trials", "30",
                              *_sets("neighborlist.s_t0_dbm = -65",
                                     "neighborlist.s_t1_dbm = -55")],
    # the analytic figures away from their default preset, so other
    # (N, S, L) values and chain sizes are checked byte for byte too
    "analytic_csvs/capacity-4500": [
        "fig6-cac", *_sets("traffic.capacity_kbps = 4500", "traffic.guard_fraction = 0.1",
                           "traffic.arrival_grid = 0.05, 0.33, 0.97, 1.61, 2.4")],
    "analytic_csvs/adaptive-12": [
        "fig5-mobility", *_sets("traffic.macro_adaptive_states = 12",
                                "sweep.femto_counts = 1, 137, 999")],
    # weights the (1 - alpha) and beta * P_D,m terms of the two-tier rates
    # more than the default preset does, from n = 0 up to 1000 FAPs
    "analytic_csvs/alpha-beta": [
        "fig5-mobility", *_sets("traffic.alpha = 0.5", "traffic.beta = 0.4",
                                "sweep.femto_counts = 0, 3, 250, 1000")],
    "analytic_csvs/duration-90": ["fig7-mbs", *_sets("traffic.mean_call_duration_s = 90")],
    # one session, the uncongested counts, and the congestion edge at m = 16
    "analytic_csvs/popularity-trials-1": [
        "fig8-popularity", *_sets("seed = 5", "trials = 1", FIG8_COUNTS)],
    "analytic_csvs/popularity-trials-7": [
        "fig8-popularity", *_sets("seed = 5", "trials = 7", FIG8_COUNTS)],
    # seeds beyond the default, and a neighbor threshold above the neighbor
    # table's reach, so the planned FAP subset is checked too
    **{f"fig4_dense_csvs/seed-{seed}": _dense(seed) for seed in (1, 2, 3, 11, 12)},
    "fig4_dense_csvs/seed-1-threshold-90": _dense(1, "topology.neighbor_threshold_m = 90"),
}


@pytest.mark.parametrize("case", sorted(PINS.keys() | PINNED_RUNS.keys()))
def test_pinned_run_matches_its_recorded_sha256(case, tmp_path, capsys):
    assert case in PINS, f"{case} runs in PINNED_RUNS, but no pin file records it"
    assert case in PINNED_RUNS, f"{case} is recorded, but PINNED_RUNS has no run for it"
    assert main(["run", *PINNED_RUNS[case], "--out", str(tmp_path)]) == EXIT_OK
    written = {os.path.basename(path): path for path in capsys.readouterr().out.split()}
    assert sorted(written) == sorted(PINS[case])
    for name, path in written.items():
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == PINS[case][name], f"{case}: {name}"


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.scenario"))),
                         ids=os.path.basename)
def test_scenario_file_validates(path, capsys):
    assert main(["validate", path]) == EXIT_OK, capsys.readouterr().err


def test_run_several_names_match_solo_runs(tmp_path):
    small = ["--trials", "1", "--set", "sweep.femto_counts = 60",
             "--set", "traffic.arrival_grid = 0.8"]
    names = ["fig4-outage", "fig6-cac", "fig4-throughput"]
    assert main(["run", *names, *small, "--out", str(tmp_path / "all")]) == EXIT_OK
    for name in names:
        assert main(["run", name, *small, "--out", str(tmp_path / name)]) == EXIT_OK
        assert (open(tmp_path / "all" / f"{name}.csv", "rb").read()
                == open(tmp_path / name / f"{name}.csv", "rb").read())


def test_fig4_pair_on_unequal_scenarios_sweeps_each():
    base = scenario_from_preset(DEFAULT_PRESET["fig4-outage"]).values
    scenarios = {"fig4-outage": Scenario({**base, "trials": 1, "sweep.femto_counts": (60.0,)}),
                 "fig4-throughput": Scenario({**base, "trials": 0})}
    results = run_experiments(scenarios)
    assert [r.experiment for r in results] == list(scenarios)
    for result, (name, scenario) in zip(results, scenarios.items()):
        assert result_to_csv(result) == result_to_csv(run_experiment(name, scenario))
    assert not results[1].rows and results[0].rows


def test_run_several_names_fails_before_any_write(tmp_path):
    proc = _femtonet("run", "fig4-outage", "fig99", "--out", str(tmp_path))
    assert proc.returncode == EXIT_INPUT_ERROR
    assert "fig99" in proc.stderr
    assert not os.listdir(tmp_path)
