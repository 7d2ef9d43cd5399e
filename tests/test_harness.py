import json
import os

import pytest

from femtonet.admission import TrafficClass
from femtonet.experiments import (
    DEFAULT_PRESET,
    check_scenario,
    csv_to_rows,
    emit,
    result_to_csv,
    run_experiment,
)
from femtonet.presets import PRESETS, TABLE_5_1, table61_classes
from femtonet.scenario import (
    Scenario,
    ScenarioError,
    apply_overrides,
    load_scenario,
    scenario_from_preset,
)


def test_presets_match_golden_file():
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "presets_golden.json")) as fh:
        golden = json.load(fh)
    live = {name: {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in table.items()}
            for name, table in PRESETS.items()}
    normalized = json.loads(json.dumps(live, sort_keys=True))
    assert normalized == golden


def test_table61_classes_sum_to_one():
    classes = table61_classes()
    assert sum(c.arrival_share for c in classes) == pytest.approx(1.0)
    assert [c.requested_bw for c in classes] == [25, 128, 56, 128, 13, 56, 56]


def table51_macro_classes() -> tuple[TrafficClass, ...]:
    """Two-class macro mix of the Ch. 5 analysis: rigid 64 kbps calls and
    adaptive 56 kbps calls that may fall to 28 kbps for handovers only."""
    t = TABLE_5_1
    gamma_h = 1.0 - t["adaptive_min_kbps"] / t["adaptive_max_kbps"]
    return (
        TrafficClass(1, "rt", t["rigid_bw_kbps"],
                     arrival_share=t["arrival_ratio_rigid"],
                     duration_s=t["mean_call_duration_s"]),
        TrafficClass(2, "nrt", t["adaptive_max_kbps"], degrade_new=0.0,
                     degrade_hand=gamma_h,
                     arrival_share=t["arrival_ratio_adaptive"],
                     duration_s=t["mean_call_duration_s"]),
    )


def test_table51_macro_classes():
    rigid, adaptive = table51_macro_classes()
    assert rigid.requested_bw == 64.0 and rigid.kind == "rt"
    assert adaptive.floor_hand == pytest.approx(28.0)


# ---------------------------------------------------------------------------
# scenario parsing


def test_scenario_preset_values():
    sc = scenario_from_preset("table-5.1")
    assert sc["neighborlist.s_t0_dbm"] == -90.0
    assert sc["neighborlist.s_t1_dbm"] == -75.0
    assert sc["traffic.capacity_kbps"] == 6000.0
    assert sc["topology.count"] == 1000


def test_load_scenario_file(tmp_path):
    path = tmp_path / "test.scenario"
    path.write_text(
        "# comment line\n"
        "name = my-run\n"
        "preset = table-4.3\n"
        "seed = 99\n"
        "topology.count = 64   # plenty\n"
        "radio.sir_threshold_db = 9.0\n"
    )
    sc = load_scenario(path)
    assert sc.name == "my-run"
    assert sc.seed == 99
    assert sc["topology.count"] == 64
    assert sc["topology.macro_ue_walls"] == 0  # from the table-4.3 preset


def test_load_scenario_unknown_key(tmp_path):
    path = tmp_path / "bad.scenario"
    path.write_text("name = x\nnot.a.key = 3\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert "not.a.key" in str(err.value)
    assert err.value.line == 2


@pytest.mark.parametrize("key", ["experiment", "topology.closed_access_fraction",
                                 "spectrum.scheme", "mc.trials", "des.calls"])
def test_load_scenario_rejects_removed_key(tmp_path, key):
    # these keys were once parsed and then ignored by every experiment
    path = tmp_path / "old.scenario"
    path.write_text(f"name = x\n{key} = 1\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert f"unknown key {key!r}" in str(err.value)
    assert (err.value.line, err.value.column) == (2, 1)


def test_load_scenario_bad_value(tmp_path):
    path = tmp_path / "bad2.scenario"
    path.write_text("seed = banana\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert err.value.line == 1


def test_load_scenario_unknown_preset(tmp_path):
    path = tmp_path / "bad3.scenario"
    path.write_text("preset = table-9.9\n")
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_shipped_scenarios_load():
    import glob

    root = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    paths = sorted(glob.glob(os.path.join(root, "*.scenario")))
    assert len(paths) >= 3
    for path in paths:
        sc = load_scenario(path)
        assert sc.name


def test_scenario_missing_name(tmp_path):
    path = tmp_path / "anon.scenario"
    path.write_text("seed = 4\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert "name" in str(err.value)


def test_override_gamma_threshold():
    sc = scenario_from_preset("table-4.3")
    assert sc["radio.sir_threshold_db"] == 9.0
    sc2 = apply_overrides(sc, ["radio.sir_threshold_db = 12"])
    assert sc2["radio.sir_threshold_db"] == 12.0
    assert sc["radio.sir_threshold_db"] == 9.0  # original untouched


# ---------------------------------------------------------------------------
# experiments


def _small(sc: Scenario, **kw) -> Scenario:
    values = {**sc.values, "trials": 3}
    values.update(kw)
    return Scenario(values)


@pytest.mark.parametrize("fraction", [2.0, -0.1, float("nan")])
def test_ch6_params_take_a_guard_fraction_only_in_the_unit_interval(fraction):
    scenario = Scenario({"traffic.guard_fraction": fraction})
    with pytest.raises(ValueError, match=r"^traffic.guard_fraction must lie in \[0, 1\], got"):
        scenario.ch6_params(1.0)
    assert Scenario({"traffic.guard_fraction": 1.0}).ch6_params(1.0).guard_channels > 0


@pytest.mark.parametrize("key, value", [
    ("traffic.capacity_kbps", float("nan")), ("traffic.capacity_kbps", float("inf")),
    ("traffic.capacity_kbps", 1.0), ("traffic.total_arrival_per_s", -1.0),
    ("traffic.arrival_density_ratio", -1.0), ("traffic.arrival_density_ratio", float("nan")),
])
def test_check_scenario_names_a_traffic_key_before_deriving_from_it(key, value):
    # these once surfaced as "Invalid literal for Fraction", "guard channels
    # outside [0, N]" or a bad lambda_o_f
    with pytest.raises(ValueError, match=rf"^{key} must be finite and "):
        check_scenario(Scenario({key: value}))


def test_unknown_experiment():
    with pytest.raises(KeyError):
        run_experiment("fig9-nope")


def test_zero_trials_empty_result():
    sc = _small(scenario_from_preset("table-8.1"), trials=0)
    res = run_experiment("fig8-popularity", sc)
    assert res.rows == []
    assert res.metadata["note"] == "zero trials"


def test_fig8_popularity_trend():
    sc = _small(scenario_from_preset("table-8.1"), trials=5)
    sc.values["sweep.session_counts"] = (10, 20, 30)
    res = run_experiment("fig8-popularity", sc)
    for m in (20, 30):  # congested from M=16 upward
        prop = dict(res.values("proposed", "satisfaction_avg"))[m]
        base = dict(res.values("equal-share", "satisfaction_avg"))[m]
        assert prop >= base
    # M=10: uncongested, both saturate at 1
    assert dict(res.values("proposed", "satisfaction_avg"))[10] == pytest.approx(1.0)


def test_fig6_cac_schemes_present():
    sc = _small(scenario_from_preset("table-6.1"))
    sc.values["traffic.arrival_grid"] = (0.8, 1.4)
    res = run_experiment("fig6-cac", sc)
    schemes = {r[1] for r in res.rows}
    assert schemes == {"proposed", "non-prioritized", "aqos", "hard-qos", "guard5"}
    for lam in (0.8, 1.4):
        prop = dict(res.values("proposed", "p_drop"))[lam]
        guard = dict(res.values("guard5", "p_drop"))[lam]
        assert prop <= guard


def test_fig5_mobility_trends():
    sc = _small(scenario_from_preset("table-5.1"))
    sc.values["sweep.femto_counts"] = (0, 500, 1000)
    res = run_experiment("fig5-mobility", sc)
    blocking = [v for _, v in sorted(res.values("integrated", "macro_new_call_blocking"))]
    assert blocking[0] >= blocking[1] >= blocking[2]
    release = [v for _, v in sorted(res.values("integrated", "macro_channel_release_rate"))]
    assert release[0] < release[1] < release[2]


@pytest.mark.parametrize("override", ["neighborlist.s_t1_dbm = -60",
                                      "radio.tx_power_femto_w = 1.0"])
def test_fig5_neighborlist_p_target_missing_follows_scenario(override):
    sc = _small(scenario_from_preset("table-5.1"), trials=60,
                **{"sweep.femto_counts": (150.0, 400.0)})

    def missing(scenario):
        res = run_experiment("fig5-neighborlist", scenario)
        return [r for r in res.rows if r[3] == "p_target_missing"]

    assert missing(apply_overrides(sc, [override])) != missing(sc)


@pytest.mark.parametrize("name", ["fig6-cac", "fig7-mbs"])
def test_call_duration_reaches_the_loss_chains(name):
    sc = scenario_from_preset(DEFAULT_PRESET[name])
    shorter = apply_overrides(sc, ["traffic.mean_call_duration_s = 60"])
    assert result_to_csv(run_experiment(name, shorter)) != \
        result_to_csv(run_experiment(name, sc))


def test_ch7_classes_hold_the_scenario_call_duration():
    from femtonet.experiments import _ch7_dimensions

    classes, *_ = _ch7_dimensions(60.0)
    assert [c.duration_s for c in classes] == [60.0] * 3
    # the admission region depends only on shares and bandwidths
    assert _ch7_dimensions(60.0)[2:] == _ch7_dimensions(120.0)[2:]


def test_fig7_mbs_allocation_trend():
    sc = _small(scenario_from_preset("table-7.1"))
    sc.values["traffic.arrival_grid"] = (0.2, 1.0, 1.8)
    res = run_experiment("fig7-mbs", sc)
    mbs = [v for _, v in sorted(res.values("proposed", "mbs_bandwidth_bps"))]
    assert mbs[0] >= mbs[1] >= mbs[2]
    assert all(6e6 - 1e-6 <= v <= 12e6 + 1e-6 for v in mbs)
    uni = [v for _, v in sorted(res.values("proposed", "unicast_layers"))]
    two_min = [v for _, v in sorted(res.values("proposed", "two_level_min_layers"))]
    # MBS layers degrade earlier than unicast layers as load rises
    assert two_min[1] < 10 or uni[1] == 10


def test_fig4_zero_trial_metadata():
    sc = _small(scenario_from_preset("table-4.3"), trials=0)
    res = run_experiment("fig4-outage", sc)
    assert res.rows == [] and "note" in res.metadata


# ---------------------------------------------------------------------------
# emission and determinism


def test_csv_round_trip(tmp_path):
    sc = _small(scenario_from_preset("table-8.1"), trials=4)
    sc.values["sweep.session_counts"] = (10, 25)
    res = run_experiment("fig8-popularity", sc)
    text = result_to_csv(res)
    assert csv_to_rows(text) == res.rows


def test_emit_csv_and_plot_script(tmp_path):
    sc = _small(scenario_from_preset("table-8.1"), trials=3)
    sc.values["sweep.session_counts"] = (20,)
    res = run_experiment("fig8-popularity", sc)
    paths = emit(res, "csv", tmp_path)
    assert paths and paths[0].endswith(".csv")
    header = open(paths[0]).readline().strip()
    assert header == "scenario,scheme,x,metric,value,stderr,seed"
    plot = emit(res, "plot-script", tmp_path)
    text = open(plot[0]).read()
    assert "gnuplot" in text and "satisfaction_avg" in text


def test_emit_empty_result(tmp_path):
    sc = _small(scenario_from_preset("table-8.1"), trials=0)
    res = run_experiment("fig8-popularity", sc)
    paths = emit(res, "csv", tmp_path)
    content = open(paths[0]).read()
    assert content.strip() == "scenario,scheme,x,metric,value,stderr,seed"


def test_experiment_byte_determinism():
    sc = _small(scenario_from_preset("table-8.1"), trials=5)
    sc.values["sweep.session_counts"] = (15, 30)
    a = result_to_csv(run_experiment("fig8-popularity", sc))
    b = result_to_csv(run_experiment("fig8-popularity", sc))
    assert a == b
    c = result_to_csv(run_experiment("fig8-popularity",
                                     Scenario({**sc.values, "seed": 8})))
    assert a != c
