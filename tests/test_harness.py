import ast
import csv
import hashlib
import itertools
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from typing import get_origin, get_type_hints

import numpy as np
import pytest

from rislink import channel, cli, harness, power, propagation
from rislink.config import GeometryConfig, SystemConfig, parse_config, preset_config
from rislink.harness import (
    SCENARIOS,
    complexity_rows_to_csv,
    complexity_table,
    draw_trial,
    run_scenario,
    run_trial,
    scenario_rows_to_csv,
    total_power_for_snr,
)
from rislink.pga import pga_optimize
from rislink.propagation import direct_gain, indirect_gain, link_budget, link_distances, p_los
from rislink.rate import RisPhases, equivalent_channel, fold_gains
from rislink.rng import SITE_BLOCKAGE, SITE_PHASES, substream


RECORD_FIELDS = ("iterations", "gradient_passes", "seconds")  # the TrialSlab fields of each pga run


def point_pairs(points):
    """The (cfg, link budget) pairs `harness._trial_draws` reads from sweep points."""
    return [(p.cfg, p.link) for p in points]


def blockage_states(points, key):
    """The blockage states the sweep points see in the trial at `key`."""
    return {draw_trial(p.cfg, p.geometry, key)[1].los for p in points}


@pytest.fixture
def no_trial(monkeypatch):
    """Fail the test if any trial is drawn: for checks that must refuse their input before a trial runs."""
    def trial_draws(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_trial_draws", trial_draws)


def small_config(**kw):
    base = dict(tx_rows=2, tx_cols=2, rx_rows=2, rx_cols=1, ris_rows=2, ris_cols=2,
                n_subcarriers=6, n_taps=(2, 2, 3), mc_trials=3,
                snr_db=(0.0,), n_ris_list=(4,), plos_grid=(0.5, 1.0),
                distance_grid=(100.0, 200.0))
    base.update(kw)
    return SystemConfig(**base)


def test_parse_config_defaults_match_table(tmp_path):
    empty = tmp_path / "empty.cfg"
    empty.write_text("# nothing but comments\n\n", encoding="utf-8")
    cfg, geom = parse_config(str(empty))
    assert geom.d_bs_ue == 200.0
    assert geom.ue_height == 1.8
    assert geom.carrier_freq_hz == 28e9
    assert geom.ant_gain_db == 62.0
    assert geom.alpha_los == 2.0 and geom.alpha_nlos == 4.0
    assert cfg.n_subcarriers == 24
    assert cfg.n_t == 64 and cfg.n_r == 4 and cfg.n_ris == 64
    assert cfg.n_taps == (3, 4, 5)
    assert cfg.angular_spread_deg == 10.0
    assert cfg.snr_db == (-5.0, 10.0)
    assert cfg.mu0 == 0.1 and cfg.epsilon == 0.001
    assert cfg.mc_trials == 500


def test_parse_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "seed = 5\n"
        "snr_db = -5, 10   # grid\n"
        "d_bs_ue = 150\n"
        "rician_k = 3.5\n",
        encoding="utf-8",
    )
    cfg, geom = parse_config(str(path), overrides={"snr_db": "-5,10,20", "seed": 7})
    assert cfg.seed == 7
    assert cfg.snr_db == (-5.0, 10.0, 20.0)
    assert cfg.rician_k == 3.5
    assert geom.d_bs_ue == 150


def test_parse_config_reads_a_file_that_starts_with_a_byte_order_mark(tmp_path):
    # some editors save UTF-8 with a BOM, which must not become part of the first key
    text = "seed = 5\nrician_k = 3.5\nd_bs_ue = 150\n"
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert parse_config(str(bom)) == parse_config(str(plain))
    assert parse_config(str(bom))[0].seed == 5


def test_parse_config_rejects_unknown_and_malformed(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.cfg:1: unknown configuration key"):
        parse_config(str(bad))
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("just words\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_config(str(malformed))
    with pytest.raises(ValueError):
        parse_config(None, overrides={"mc_trials": "0"})


def test_cli_names_a_config_file_that_is_not_utf8(tmp_path, capsys):
    conf = tmp_path / "latin1.cfg"
    conf.write_bytes(b"seed = 5 \xff\n")
    out = tmp_path / "x.csv"
    assert cli.main(["simulate", "--scenario", "se_vs_snr", "--config", str(conf), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {conf}: 'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1
    assert not out.exists()


def test_tuple_fields_round_trip_through_overrides():
    cfg, geom = preset_config("desk")
    hints = {**get_type_hints(SystemConfig), **get_type_hints(GeometryConfig)}
    tuple_fields = [name for name, hint in hints.items() if get_origin(hint) is tuple]
    assert {"n_taps", "snr_db", "n_ris_list", "plos_grid", "distance_grid"} <= set(tuple_fields)
    for name in tuple_fields:
        owner = 0 if hasattr(cfg, name) else 1
        value = tuple(reversed(getattr((cfg, geom)[owner], name)))  # differs from the preset
        text = ", ".join(str(v) for v in value)
        parsed = getattr(parse_config(None, overrides={name: text}, preset="desk")[owner], name)
        assert parsed == value
        assert [type(v) for v in parsed] == [type(v) for v in value]


@pytest.mark.parametrize("key, text, via_cli", [
    ("noise_var", "0", False),
    ("mu0", "-0.1", False),
    ("epsilon", "0", False),
    ("n_ris_list", "", False),
    ("plos_grid", "", False),
    ("distance_grid", "", False),
    ("plos_grid", "0.5, 1.5", False),
    ("plos_grid", "-0.1", False),
    ("n_ris_list", "16, 0", False),
    ("n_ris_list", "16, 2.5", False),
    ("n_taps", "2, 2.5, 3", False),
    ("mc_trials", "2.5", False),
    ("tx_rows", "2.5", False),
    ("n_streams", "2.0", False),
    ("seed", "-3", False),
    ("snr_db", "inf", False),
    ("mu0", "inf", False),
    ("rician_k", "nan", False),
    ("distance_grid", "100, nan", False),
    ("angular_spread_deg", "-5", False),
    ("spacing_wavelengths", "0", False),
    ("distance_grid", "20, 25", False),
    ("distance_grid", "30", False),
    ("d_ris", "nan", False),
    ("carrier_freq_hz", "inf", False),
    ("d_bs_ue", "2.2", False),
    ("rician_k", "-1", False),
    ("alpha_los", "-0.5", False),
    ("alpha_nlos", "-1", False),
    ("snr_db", "", True),
    ("seed", "-3", True),
    ("snr_db", "nan", True),
    ("distance_grid", "20, 25", True),
    ("d_ris", "50", True),  # a key the scenario sets itself
    ("noise_var", "2", True),  # unit noise: scale the power budget instead
    ("n_streams", "2", True),  # every eigenmode carries a stream
    ("n_ris_list", "4,x", True),  # complexity --n-ris
    ("n_ris_list", "0", True),
    ("n_ris_list", "-4", True),
    ("rician_k", "-1", True),
    ("alpha_los", "-0.5", True),
    ("alpha_nlos", "-1", True),
    ("n_subcarriers", "2", True),  # below the longest tap profile, a cross-field check
    ("ant_gain_db", "4000", True),  # 10^(x/10) would overflow, and the refusal would blame snr_db
    ("ant_gain_db", "-4000", True),
    ("carrier_freq_hz", "1e300", True),  # the reference gain underflows to 0
    ("carrier_freq_hz", "1e-80", True),  # the reflected-path gain overflows
    ("snr_db", "5,,10", True),  # an empty item is refused, not dropped
    ("n_ris_list", "16,,64", False),
])
def test_config_rejects_bad_values_before_any_trial(key, text, via_cli, tmp_path):
    if not via_cli:
        with pytest.raises(ValueError, match=key):
            parse_config(None, overrides={key: text}, preset="desk")
        return
    out = tmp_path / "results.csv"
    flags = {"snr_db": "--snr-db", "seed": "--seed", "n_ris_list": "--n-ris"}
    flag = f"{flags[key]}={text}" if key in flags else f"--set={key}={text}"
    command = ["complexity"] if key == "n_ris_list" else ["simulate", "--scenario", "se_vs_snr"]
    proc = subprocess.run([sys.executable, "-m", "rislink", *command, "--preset", "desk", flag,
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 2
    assert key in proc.stderr
    if key not in ("d_ris", "noise_var", "n_streams", "carrier_freq_hz"):  # these name the key after the reason
        assert proc.stderr.startswith(f"error: {key}")
    assert not out.exists()


def test_presets():
    cfg, _ = preset_config("desk")
    assert (cfg.n_t, cfg.n_r, cfg.n_ris) == (16, 4, 16)
    assert cfg.n_subcarriers == 8 and cfg.mc_trials == 50
    paper, _ = preset_config("paper")
    assert (paper.n_t, paper.n_ris, paper.n_subcarriers) == (64, 64, 24)
    with pytest.raises(ValueError):
        preset_config("bogus")


def test_with_n_ris_factorization():
    cfg = small_config()
    for n in (4, 16, 36, 64, 256):
        c = cfg.with_n_ris(n)
        assert c.n_ris == n
        assert c.ris_rows * c.ris_cols == n


@pytest.mark.parametrize("n_ris", [0, -4, 2.5, 16.0, True])
def test_with_n_ris_rejects_a_size_that_is_not_a_positive_integer(n_ris):
    with pytest.raises(ValueError, match="^n_ris_list must hold integers >= 1"):
        small_config().with_n_ris(n_ris)


@pytest.mark.parametrize("sizes, trials, field", [([0], 1, "n_ris_list"), ([4, -4], 1, "n_ris_list"),
                                                   ([4], 0, "mc_trials"), ([4], 1.5, "mc_trials")])
@pytest.mark.usefixtures("no_trial")
def test_complexity_table_rejects_bad_sizes_and_trials_before_any_trial(sizes, trials, field):
    with pytest.raises(ValueError, match=f"^{field} must hold integers >= 1"):
        complexity_table(small_config(), GeometryConfig(), sizes, trials=trials, snr_db=0.0)


@pytest.mark.parametrize("seed", [1.5, -1, "3"])
@pytest.mark.usefixtures("no_trial")
def test_complexity_table_rejects_a_bad_seed_before_any_trial(seed):
    # the config's rule for seed: an integer >= 0, never truncated
    with pytest.raises(ValueError, match="^seed must hold integers >= 0"):
        complexity_table(small_config(), GeometryConfig(), [4], seed, trials=1, snr_db=0.0)


@pytest.mark.parametrize("build, field", [
    (lambda: SystemConfig(snr_db=5.0), "snr_db"),
    (lambda: parse_config(None, {"n_ris_list": 16}, preset="desk"), "n_ris_list"),
    (lambda: GeometryConfig(d_bs_ue="200"), "d_bs_ue"),
    (lambda: run_trial(small_config(), GeometryConfig(), "no_ris", (0, 1, 0), "5"), "snr_db"),
], ids=["float-for-tuple", "int-override-for-tuple", "str-for-float", "str-for-snr"])
def test_config_rejects_a_wrongly_typed_value_naming_the_field(build, field):
    with pytest.raises(ValueError, match=f"^{field} must hold"):
        build()


@pytest.mark.parametrize("build, field", [
    (lambda: SystemConfig(mc_trials=True), "mc_trials"),
    (lambda: SystemConfig(n_ris_list=(True,)), "n_ris_list"),
    (lambda: SystemConfig(seed=False), "seed"),
    (lambda: SystemConfig(mu0=True), "mu0"),
    (lambda: complexity_table(small_config(), GeometryConfig(), [4], True, trials=1, snr_db=0.0), "seed"),
    (lambda: complexity_table(small_config(), GeometryConfig(), [4], trials=True, snr_db=0.0), "mc_trials"),
    (lambda: complexity_table(small_config(), GeometryConfig(), [4], trials=1, snr_db=True), "snr_db"),
    (lambda: run_trial(small_config(), GeometryConfig(), "no_ris", (0, 1, 0), True), "snr_db"),
    (lambda: total_power_for_snr(small_config(), GeometryConfig(), False), "snr_db"),
], ids=["int-field", "int-tuple-item", "seed", "float-field", "complexity-seed", "complexity-trials",
        "complexity-snr", "run-trial-snr", "total-power-snr"])
@pytest.mark.usefixtures("no_trial")
def test_config_rejects_a_bool_in_a_numeric_field(build, field):
    # bool is a numbers.Integral, but neither a count nor a real parameter
    with pytest.raises(ValueError, match=f"^{field} must"):
        build()


@pytest.mark.parametrize("snr_db", [True, "5", None, np.nan, (5.0,), [5.0]])
@pytest.mark.usefixtures("no_trial")
def test_a_lone_snr_is_held_to_the_rule_of_one_snr_db_item(snr_db):
    # a sweep point's SNR is one item of cfg.snr_db: no tuple clause, and a tuple is not one SNR
    with pytest.raises(ValueError) as refusal:
        run_trial(small_config(), GeometryConfig(), "no_ris", (0, 1, 0), snr_db)
    assert str(refusal.value) == f"snr_db must hold finite numbers, got {snr_db!r}"


def test_tuple_fields_are_stored_as_tuples():
    assert SystemConfig(n_ris_list=[16]) == SystemConfig(n_ris_list=(16,))
    cfg, _ = parse_config(None, {"n_ris_list": [16, 64]}, preset="desk")
    assert cfg.n_ris_list == (16, 64)
    hints = get_type_hints(SystemConfig)
    tuple_fields = [name for name, hint in hints.items() if get_origin(hint) is tuple]
    listed = SystemConfig(**{name: list(getattr(SystemConfig(), name)) for name in tuple_fields})
    assert all(type(getattr(listed, name)) is tuple for name in tuple_fields)
    assert listed == SystemConfig() and hash(listed) == hash(SystemConfig())


def test_snr_reference_gain():
    geom = GeometryConfig()
    p = p_los(geom)
    expected = p * direct_gain(geom, True) + (1 - p) * direct_gain(geom, False)
    assert link_budget(geom)[1] == pytest.approx(expected, rel=1e-12)
    forced = replace(geom, p_los_override=1.0)
    assert link_budget(forced)[1] == pytest.approx(direct_gain(geom, True), rel=1e-12)
    cfg = small_config()
    assert total_power_for_snr(cfg, forced, 0.0) == pytest.approx(
        cfg.n_subcarriers / direct_gain(geom, True), rel=1e-12)


def test_the_snr_reference_cancels_the_antenna_gain():
    # ant_gain_db scales both paths' gains and the reference alike, so it sets no rate of any arm or scenario
    cfg = small_config(snr_db=(-5.0, 10.0))
    keys = [(cfg.seed, 1, t) for t in range(10)]
    for scenario in SCENARIOS:
        se = [harness._trial_rates(harness.sweep_points(cfg, replace(GeometryConfig(), ant_gain_db=gain), scenario),
                                   keys).se for gain in (62.0, 0.0, -30.0)]
        for other in se[1:]:
            np.testing.assert_allclose(other, se[0], rtol=1e-12, atol=0)


def test_run_trial_deterministic_and_ordered():
    cfg = small_config()
    geom = GeometryConfig()
    key = (11, SCENARIOS["se_vs_snr"], 0)
    a = run_trial(cfg, geom, "pga", key, 10.0)
    b = run_trial(cfg, geom, "pga", key, 10.0)
    assert a == b  # bit-for-bit
    assert run_trial(cfg, geom, "no_ris", key, 10.0) >= 0.0
    with pytest.raises(ValueError):
        run_trial(cfg, geom, "best_arm", key, 10.0)


@pytest.mark.parametrize("override", [1.0, 0.0], ids=["los", "nlos"])
def test_run_trial_is_pga_on_the_drawn_trial(override):
    # run_trial's pga cell is the optimizer on draw_trial's folded channels,
    # started from the trial's start phases
    cfg, geom = small_config(), replace(GeometryConfig(), p_los_override=override)
    key = (13, SCENARIOS["plos_vs_se"], 2)
    channels, gains = draw_trial(cfg, geom, key)
    assert gains.los == bool(override)
    phi0 = RisPhases.random(cfg.n_ris, substream(*key, SITE_PHASES))
    result = pga_optimize(fold_gains(channels, gains), total_power_for_snr(cfg, geom, 10.0), mu0=cfg.mu0,
                          epsilon=cfg.epsilon, max_iter=cfg.max_iter, phi0=phi0)
    assert result.rate == run_trial(cfg, geom, "pga", key, 10.0)


def test_pga_beats_random_on_shared_draws():
    cfg, geom = preset_config("desk")
    g = replace(geom, bs_height=10.0, d_ris=2.2)
    wins = 0
    for t in range(50):
        key = (3, SCENARIOS["se_vs_snr"], t)
        if run_trial(cfg, g, "pga", key, 10.0) >= run_trial(cfg, g, "random_phases", key, 10.0):
            wins += 1
    assert wins >= 45  # spec asks >= 90% of 50 paired trials


def test_run_scenario_row_contract():
    cfg = small_config(seed=1)
    geom = GeometryConfig()
    rows = run_scenario(cfg, geom, "se_vs_snr")
    assert len(rows) == len(cfg.snr_db) * len(cfg.n_ris_list) * 3
    arms = {r.arm for r in rows}
    assert arms == {"pga", "random_phases", "no_ris"}
    assert all(r.trials == cfg.mc_trials and r.mean_se >= 0 for r in rows)

    with pytest.raises(ValueError):
        run_scenario(cfg, geom, "unknown_sweep")


def test_run_scenario_distance_recomputes_geometry():
    cfg = small_config(mc_trials=2, seed=1)
    geom = GeometryConfig()
    rows = run_scenario(cfg, geom, "distance_vs_se")
    by_d = {r.sweep_value: r.d2 for r in rows}
    for d, d2 in by_d.items():
        g = replace(geom, bs_height=20.0, d_ris=30.0, d_bs_ue=d)
        assert d2 == pytest.approx(link_distances(g)[1], rel=1e-12)
    assert len(by_d) == 2


@pytest.mark.parametrize("scenario, key, value", [
    ("se_vs_snr", "bs_height", 3.0),
    ("se_vs_snr", "d_ris", 50.0),
    ("plos_vs_se", "d_bs_ue", 150.0),
    ("plos_vs_se", "bs_height", 3.0),
    ("plos_vs_se", "d_ris", 50.0),
    ("plos_vs_se", "p_los_override", 0.5),
    ("distance_vs_se", "d_bs_ue", 150.0),
    ("distance_vs_se", "bs_height", 3.0),
    ("distance_vs_se", "d_ris", 50.0),
])
@pytest.mark.usefixtures("no_trial")
def test_run_scenario_refuses_geometry_it_sets(scenario, key, value):
    geom = replace(GeometryConfig(), **{key: value})
    with pytest.raises(ValueError, match=f"{scenario} sets {key} itself"):
        run_scenario(small_config(), geom, scenario)


def test_cli_complexity_honours_the_geometry_keys_the_scenarios_set(tmp_path, capsys):
    sets = ["--set", "bs_height=3", "--set", "d_ris=50", "--set", "d_bs_ue=150", "--set", "p_los_override=0.5"]
    out = tmp_path / "table.csv"
    assert cli.main(["complexity", "--preset", "desk", "--n-ris", "4", "--trials", "1", *sets,
                     "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        assert [row["n_ris"] for row in csv.DictReader(fh)] == ["4"]
    for scenario in SCENARIOS:
        assert cli.main(["simulate", "--scenario", scenario, "--preset", "desk", *sets,
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {scenario} sets ")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command, flag, key", [
    ("se_vs_snr", "--set=ris_rows=2", "ris_rows"),
    ("se_vs_snr", "--set=ris_cols=2", "ris_cols"),
    ("se_vs_snr", "--set=plos_grid=0.5", "plos_grid"),
    ("se_vs_snr", "--set=distance_grid=100", "distance_grid"),
    ("plos_vs_se", "--set=n_ris_list=4", "n_ris_list"),
    ("plos_vs_se", "--set=distance_grid=100", "distance_grid"),
    ("distance_vs_se", "--snr-db=20,30", "snr_db"),
    ("distance_vs_se", "--set=snr_db=20", "snr_db"),
    ("distance_vs_se", "--set=n_ris_list=4", "n_ris_list"),
    ("distance_vs_se", "--set=plos_grid=0.5", "plos_grid"),
    ("complexity", "--set=ris_rows=2", "ris_rows"),
    ("complexity", "--set=ris_cols=2", "ris_cols"),
    ("complexity", "--set=plos_grid=0.5", "plos_grid"),
    ("complexity", "--set=distance_grid=100", "distance_grid"),
])
@pytest.mark.usefixtures("no_trial")
def test_cli_refuses_a_key_the_command_does_not_read(tmp_path, capsys, command, flag, key):
    out = tmp_path / "x.csv"
    argv = ["complexity"] if command == "complexity" else ["simulate", "--scenario", command]
    assert cli.main([*argv, "--preset", "desk", "--trials", "1", flag, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} is not read by {command}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--snr-db=-5,10", "--set=snr_db=-5,10"])
@pytest.mark.usefixtures("no_trial")
def test_cli_complexity_refuses_more_than_one_snr_from_the_command_line(tmp_path, capsys, flag):
    # complexity runs at one SNR; a config file or preset with several still runs at the first
    out = tmp_path / "x.csv"
    assert cli.main(["complexity", "--preset", "desk", "--trials", "1", "--n-ris", "4", flag, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: snr_db") and "(-5.0, 10.0)" in err and err.count("\n") == 1
    assert not out.exists()


def test_cli_accepts_unread_keys_from_a_config_file(tmp_path):
    # one file may serve every scenario, so distance_vs_se runs as if the other scenarios' keys were unset
    conf = tmp_path / "run.cfg"
    conf.write_text("snr_db = 20, 30\nn_ris_list = 4\nplos_grid = 0.5\n", encoding="utf-8")
    texts = []
    for flags in ((), ("--config", str(conf))):
        out = tmp_path / f"run{len(texts)}.csv"
        assert cli.main(["simulate", "--scenario", "distance_vs_se", "--preset", "desk", "--trials", "1", *flags,
                         "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


def test_run_scenario_honours_geometry_it_does_not_set():
    geom = replace(GeometryConfig(), d_bs_ue=150.0)
    rows = run_scenario(small_config(mc_trials=1, seed=1), geom, "se_vs_snr")
    assert {r.d2 for r in rows} == {link_distances(geom)[1]}


def test_plos_override_forces_los():
    # with override 1.0 every trial is LOS: rates reproduce the forced-LOS draw
    cfg = small_config(mc_trials=2, plos_grid=(1.0,), snr_db=(0.0,), seed=2)
    geom = GeometryConfig()
    rows = run_scenario(cfg, geom, "plos_vs_se")
    forced = replace(geom, d_bs_ue=200.0, bs_height=5.0, d_ris=2.2, p_los_override=1.0)
    redo = np.mean([run_trial(cfg, forced, "pga", (2, SCENARIOS["plos_vs_se"], t), 0.0)
                    for t in range(2)])
    pga_row = [r for r in rows if r.arm == "pga"][0]
    assert pga_row.mean_se == pytest.approx(redo, rel=1e-12)


def sweep_config():
    # plos_grid brackets most blockage draws, so trials mix LOS and NLOS across points
    return small_config(mc_trials=4, snr_db=(0.0, 10.0), n_ris_list=(4, 9),
                        plos_grid=(0.1, 0.5, 0.9), distance_grid=(100.0, 200.0))


def cell_setup(cfg, geom, scenario, row):
    """(cfg, geometry) of a row's sweep point, rebuilt from the documented scenario geometry."""
    if scenario == "se_vs_snr":
        return cfg.with_n_ris(row.n_ris), replace(geom, bs_height=10.0, d_ris=2.2)
    if scenario == "plos_vs_se":
        return cfg, replace(geom, d_bs_ue=200.0, bs_height=5.0, d_ris=2.2,
                            p_los_override=row.sweep_value)
    return cfg, replace(geom, bs_height=20.0, d_ris=30.0, d_bs_ue=row.sweep_value)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_run_scenario_matches_per_cell_trials(scenario):
    # the per-cell path (one run_trial per trial, sweep point and arm) is the reference
    cfg, geom, seed = replace(sweep_config(), seed=5), GeometryConfig(), 5
    rows = run_scenario(cfg, geom, scenario)
    assert len(rows) == {"se_vs_snr": 12, "plos_vs_se": 18, "distance_vs_se": 6}[scenario]
    keys = [(seed, SCENARIOS[scenario], t) for t in range(cfg.mc_trials)]
    los_by_trial = {t: set() for t in range(cfg.mc_trials)}
    for row in rows:
        c, g = cell_setup(cfg, geom, scenario, row)
        values = np.array([run_trial(c, g, row.arm, key, row.snr_db) for key in keys])
        assert row.mean_se == float(values.mean())
        assert row.stderr_se == float(values.std(ddof=1) / np.sqrt(len(values)))
        for t, key in enumerate(keys):
            los_by_trial[t].add(draw_trial(c, g, key)[1].los)
    if scenario == "plos_vs_se":
        assert any(len(states) == 2 for states in los_by_trial.values())


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_random_phases_is_read_from_the_pga_start_rate(scenario):
    # with pga scored, random_phases is pga's start rate, bit for bit the lone arm's own waterfill
    cfg, geom = preset_config("desk")
    points = harness.sweep_points(cfg, geom, scenario)
    assert [p.budget for p in points] == [total_power_for_snr(p.cfg, p.geometry, p.snr_db) for p in points]
    column = harness.ARMS.index("random_phases")
    for t in range(2):
        key = (cfg.seed, SCENARIOS[scenario], t)
        both = harness._trial_rates(points, [key]).se[:, column, 0]
        alone = harness._trial_rates(points, [key], arms=("random_phases",)).se[:, 0, 0]
        assert np.array_equal(both, alone)
        starts = np.full(len(points), np.nan)
        [groups] = harness._trial_draws(point_pairs(points), [key])
        for channels, gains, phi0, members in groups:
            for i in members:
                starts[i] = pga_optimize(fold_gains(channels, gains), points[i].budget, mu0=cfg.mu0,
                                         epsilon=cfg.epsilon, max_iter=cfg.max_iter, phi0=phi0).start_rate
        assert np.array_equal(both, starts)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_run_scenario_synthesizes_each_link_once_per_state(monkeypatch, scenario):
    links, keys = [], []
    synthesize, make_substream = harness.synthesize_link, harness.substream

    def counting_synthesize(link, cfg, rng, los=True):
        links.append((link, cfg.n_ris, los))
        return synthesize(link, cfg, rng, los=los)

    def counting_substream(*key):
        keys.append(key)
        return make_substream(*key)

    monkeypatch.setattr(harness, "synthesize_link", counting_synthesize)
    monkeypatch.setattr(harness, "substream", counting_substream)
    cfg, geom = replace(sweep_config(), mc_trials=1), GeometryConfig()
    for seed in range(4):
        links.clear()
        keys.clear()
        rows = run_scenario(replace(cfg, seed=seed), geom, scenario)
        drawn, built = list(links), list(keys)
        key = (seed, SCENARIOS[scenario], 0)
        setups = [cell_setup(cfg, geom, scenario, row) for row in rows]
        sizes = {c.n_ris for c, _ in setups}
        states = {draw_trial(c, g, key)[1].los for c, g in setups}
        # the RIS links once per RIS size, the direct link once per blockage state
        for link in (1, 2):
            assert sorted(n for i, n, _ in drawn if i == link) == sorted(sizes)
        assert sorted(los for i, _, los in drawn if i == 3) == sorted(states)
        # the trial's blockage uniform is drawn from its substream once
        assert built.count(key + (SITE_BLOCKAGE,)) == 1


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_trial_rates_cells_equal_lone_point_trials(scenario):
    # run_trial scores one point alone, so it shares no algebra with other points
    cfg, geom = preset_config("desk")
    points = harness.sweep_points(cfg, geom, scenario)
    keys = [(cfg.seed, SCENARIOS[scenario], t) for t in range(3)]
    se = harness._trial_rates(points, keys).se
    for i, p in enumerate(points):
        for a, arm in enumerate(harness.ARMS):
            assert se[i, a].tolist() == [run_trial(p.cfg, p.geometry, arm, key, p.snr_db) for key in keys], (i, arm)
    if scenario == "plos_vs_se":  # some trial sees both blockage states
        assert any(len(blockage_states(points, key)) == 2 for key in keys)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_trial_rates_runs_the_optimizer_only_for_the_pga_arm(monkeypatch, scenario):
    # the gates' lone-arm run_trial calls score random_phases or no_ris without an optimizer run
    cfg, geom = preset_config("desk")
    points = harness.sweep_points(cfg, geom, scenario)
    keys = [(cfg.seed, SCENARIOS[scenario], t) for t in range(2)]
    runs = []
    optimize = harness.pga_optimize
    monkeypatch.setattr(harness, "pga_optimize", lambda *args, **kwargs: runs.append(1) or optimize(*args, **kwargs))
    for arms in (("random_phases",), ("no_ris",), ("random_phases", "no_ris")):
        slab = harness._trial_rates(points, keys, arms)
        assert runs == [] and not any(getattr(slab, name).any() for name in RECORD_FIELDS), arms
    slab = harness._trial_rates(points, keys, ("pga",))
    assert len(runs) == len(points) * len(keys)
    assert all(getattr(slab, name).shape == (len(points), len(keys)) for name in RECORD_FIELDS)
    assert (slab.gradient_passes >= 1).all() and (slab.seconds > 0).all()  # every run takes a gradient pass


def record_points(case):
    """The desk sweep points of a scenario, or "zero_gradient": one chunk whose groups alternate between a geometry
    whose reflected gain underflows to 0 (a 1e100 Hz carrier), which zeroes the folded BS->RIS stack and every
    gradient, and the default geometry."""
    cfg, geom = preset_config("desk")
    if case in SCENARIOS:
        return harness.sweep_points(cfg, geom, case)
    far = replace(geom, carrier_freq_hz=1e100)
    assert indirect_gain(far) == 0.0
    return [harness._sweep_point(cfg, g, "snr_db", snr, snr) for snr in (-5.0, 10.0) for g in (far, geom)]


def test_trial_rates_records_each_pga_run():
    # the rate and records of a draw are those of the lone optimizer run on that folded draw, whether the
    # chunk took its first step or the run did
    for case in ("plos_vs_se", "se_vs_snr", "zero_gradient"):
        points = record_points(case)
        keys = [(0, SCENARIOS["se_vs_snr"], t) for t in range(2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slab = harness._trial_rates(points, keys)
        assert slab.iterations.dtype.kind == slab.gradient_passes.dtype.kind == "i"
        column = harness.ARMS.index("pga")
        checked = 0
        for t, groups in enumerate(harness._trial_draws(point_pairs(points), keys)):
            for channels, gains, phi0, members in groups:
                for i in members:
                    c = points[i].cfg
                    result = pga_optimize(fold_gains(channels, gains), points[i].budget, mu0=c.mu0,
                                          epsilon=c.epsilon, max_iter=c.max_iter, phi0=phi0)
                    assert [slab.iterations[i, t], slab.gradient_passes[i, t]] == [
                        result.iterations, result.gradient_passes], (case, i, t)
                    assert slab.se[i, column, t] == result.rate, (case, i, t)
                    if gains.rho_indirect == 0.0:
                        assert (result.stop_reason, result.iterations, result.gradient_passes) == (
                            "zero_gradient", 0, 1)
                    checked += 1
        assert checked == len(points) * len(keys)
        assert len(set(slab.iterations.ravel())) > 1
    # zero and live gradients interleave in the last case's one chunk
    assert harness._chunk_trials([p.cfg for p in points]) >= len(keys)
    assert slab.iterations[0::2].tolist() == [[0, 0]] * 2 and (slab.iterations[1::2] > 0).all()


def test_one_trial_kernel_calls_the_optimizer():
    # the scenarios and the complexity table score their trials through one kernel and draw them through one
    # synthesis path: the package calls pga_optimize and fold_gains only in harness._trial_rates and
    # synthesize_link only in harness._link_response, and never passes a meter
    sites, meters = {}, []
    for path in sorted(Path(harness.__file__).parent.rglob("*.py")):
        owner = {}
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            scope = f"{path.stem}.{node.name}" if isinstance(node, ast.FunctionDef) else owner.get(node, path.stem)
            owner.update(dict.fromkeys(ast.iter_child_nodes(node), scope))
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("pga_optimize", "fold_gains", "synthesize_link"):
                    sites.setdefault(name, []).append(scope)
                meters += [scope for keyword in node.keywords if keyword.arg == "meter"]
    assert sites == {"pga_optimize": ["harness._trial_rates"], "fold_gains": ["harness._trial_rates"],
                     "synthesize_link": ["harness._link_response"]}
    assert meters == []


def positional_reads(source: str) -> list[int]:
    """Lines of `source` that read a sweep point or a trial kernel's result by position.

    Flags a starred unpacking target (`c, *_`, `_, g, *_`) and a constant index or slice into an indexed
    value or a call result (`points[i][:3]`, `points[0][0]`, `[1][0]`, `[0][0, 0, 0]`).
    """
    def constant(index):
        if isinstance(index, ast.Slice):
            parts = index.lower, index.upper, index.step
            return all(part is None or isinstance(part, ast.Constant) for part in parts)
        if isinstance(index, ast.Tuple):
            return all(constant(item) for item in index.elts)
        return isinstance(index, ast.Constant)

    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Starred) and isinstance(node.ctx, ast.Store)
            or isinstance(node, ast.Subscript) and isinstance(node.value, (ast.Subscript, ast.Call))
            and constant(node.slice)]


def test_harness_reads_points_and_slabs_by_name():
    # a SweepPoint and a TrialSlab are read by field name, so adding a field moves no reader
    assert positional_reads(Path(harness.__file__).read_text(encoding="utf-8")) == []
    for pattern in ("c, *_ = p", "for _, g, *_ in points: pass", "points[i][:3]", "points[0][0]",
                    "f(x)[1][0]", "f(x)[0][0, 0, 0]"):
        assert set(positional_reads(pattern)) == {1}, pattern
    assert positional_reads("h1[n][t], se[i, :, t], keys[a:a + n], f(x).se.item()") == []


@pytest.mark.parametrize("scenario", ["plos_vs_se", "se_vs_snr"])
def test_trial_decomposes_each_distinct_channel_once(monkeypatch, scenario):
    # one chunk: each group's start channel once, the direct channel once per (trial, blockage state, direct gain),
    # plus one decomposition per optimizer candidate, counted per (K, N_r, N_t) slice whichever module makes the call
    cfg, geom = preset_config("desk")
    points = harness.sweep_points(cfg, geom, scenario)
    keys = [(cfg.seed, SCENARIOS[scenario], t) for t in range(min(3, harness._chunk_trials([p.cfg for p in points])))]
    starts, directs = {}, {}  # (trial, RIS size, gains) -> start channel, (trial, state, direct gain) -> direct channel
    for t, groups in enumerate(harness._trial_draws(point_pairs(points), keys)):
        for channels, gains, phi0, _ in groups:
            folded = fold_gains(channels, gains)
            starts[t, phi0.n_elements, gains] = equivalent_channel(folded, phi0)
            directs[t, gains.los, gains.rho_direct] = folded.h3
    if scenario == "plos_vs_se":  # some trial sees both blockage states
        assert len(directs) > len(keys)
    else:  # the two RIS sizes of a trial share its direct channel
        assert len(starts) == 2 * len(directs)

    decomposed, iterations = [], []
    eigvals, optimize = power.channel_eigvals, harness.pga_optimize
    for module in (power, harness):
        monkeypatch.setattr(module, "channel_eigvals", lambda heq, noise_var=1.0: decomposed.extend(
            heq.reshape(-1, *heq.shape[-3:])) or eigvals(heq, noise_var), raising=False)

    def counting_optimize(*args, **kwargs):
        result = optimize(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(harness, "pga_optimize", counting_optimize)
    harness._trial_rates(points, keys)
    assert len(iterations) == len(points) * len(keys)
    assert len(decomposed) == len(starts) + len(directs) + sum(iterations)
    for heq in (*starts.values(), *directs.values()):
        assert sum(np.array_equal(slice_, heq) for slice_ in decomposed) == 1


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_baseline_arms_decompose_and_waterfill_once_per_chunk(monkeypatch, scenario):
    # every start and direct channel of a chunk in one channel_eigvals call, every (member, arm) row in one waterfill
    cfg, geom = replace(sweep_config(), mc_trials=5), GeometryConfig()
    points = harness.sweep_points(cfg, geom, scenario)
    keys = [(cfg.seed, SCENARIOS[scenario], t) for t in range(cfg.mc_trials)]
    monkeypatch.setattr(harness, "CHUNK_BYTES", 2 * per_trial_bytes(points))  # chunks [0, 1], [2, 3] and [4]
    calls = []
    eigvals, fill = power.channel_eigvals, power.waterfill
    for module in (power, harness):  # whichever module makes the call
        monkeypatch.setattr(module, "channel_eigvals", lambda *args: calls.append("channel_eigvals") or eigvals(*args))
        monkeypatch.setattr(module, "waterfill", lambda *args: calls.append("waterfill") or fill(*args))
    harness._trial_rates(points, keys, ("random_phases", "no_ris"))
    assert calls == ["channel_eigvals", "waterfill"] * 3


@pytest.mark.parametrize("arms", [("pga",), ("random_phases",), ("no_ris",), ("random_phases", "no_ris"),
                                  harness.ARMS])
@pytest.mark.parametrize("scenario", ["plos_vs_se", "se_vs_snr"])
def test_trial_rates_build_only_the_rows_their_arms_read(monkeypatch, scenario, arms):
    # a start channel and row only for random_phases or pga, a direct channel and row only for no_ris, one
    # candidate per optimizer step, counted per (K, N_r, N_t) slice and per waterfilled row; a group is folded once
    # without pga, and three times with it (the scoring, first-step and optimizer passes)
    cfg, geom = preset_config("desk")
    points = harness.sweep_points(cfg, geom, scenario)
    keys = [(cfg.seed, SCENARIOS[scenario], t) for t in range(2)]
    assert harness._chunk_trials([p.cfg for p in points]) >= len(keys)
    trials = harness._trial_draws(point_pairs(points), keys)
    groups = sum(len(trial) for trial in trials)
    directs = {(t, gains.los, gains.rho_direct) for t, trial in enumerate(trials) for _, gains, _, _ in trial}
    slices, rows, folds = [], [], []
    eigvals, fill, fold = power.channel_eigvals, power.waterfill, harness.fold_gains
    for module in (power, harness):  # whichever module makes the call
        monkeypatch.setattr(module, "channel_eigvals", lambda heq, noise_var=1.0: slices.append(
            int(np.prod(heq.shape[:-3]))) or eigvals(heq, noise_var), raising=False)
        monkeypatch.setattr(module, "waterfill", lambda lams, budgets: rows.append(
            len(budgets) if np.ndim(budgets) else 1) or fill(lams, budgets), raising=False)
    monkeypatch.setattr(harness, "fold_gains", lambda *args: folds.append(1) or fold(*args))
    slab = harness._trial_rates(points, keys, arms)
    members = len(points) * len(keys)
    start, direct, steps = ("pga" in arms or "random_phases" in arms), "no_ris" in arms, int(slab.iterations.sum())
    assert sum(slices) == start * groups + direct * len(directs) + steps
    assert sum(rows) == (start + direct) * members + steps
    assert len(folds) == groups * (3 if "pga" in arms else 1)
    assert ("pga" in arms) == (steps > 0)


@pytest.mark.parametrize("scenario, changes", [*((s, {}) for s in sorted(SCENARIOS)),
                                               ("distance_vs_se", {"distance_grid": (100.0, 100.0, 130.0)})],
                         ids=[*sorted(SCENARIOS), "distance_vs_se-repeated"])
def test_trial_groups_partition_the_points_by_the_channel_they_see(scenario, changes):
    # each trial's groups cover every point once; a group's members see its channels, gains and phases alone,
    # points that differ in RIS size, blockage state or gains land in different groups, and points whose
    # separately computed gains are equal share one
    cfg, geom = replace(sweep_config(), **changes), GeometryConfig()
    points = harness.sweep_points(cfg, geom, scenario)
    for seed in range(4):
        keys = [(seed, SCENARIOS[scenario], t) for t in range(cfg.mc_trials)]
        for key, groups in zip(keys, harness._trial_draws(point_pairs(points), keys), strict=True):
            assert sorted(i for *_, members in groups for i in members) == list(range(len(points)))
            for channels, gains, phi0, members in groups:
                for i in members:
                    c = points[i].cfg
                    alone, alone_gains = draw_trial(c, points[i].geometry, key)
                    assert alone_gains == gains
                    assert all(np.array_equal(getattr(channels, h), getattr(alone, h)) for h in ("h1", "h2", "h3"))
                    assert np.array_equal(phi0.diag, RisPhases.random(c.n_ris, substream(*key, SITE_PHASES)).diag)
            assert len({(phi0.n_elements, gains.los, gains.rho_direct, gains.rho_indirect)
                        for _, gains, phi0, _ in groups}) == len(groups)
            if scenario == "se_vs_snr":  # two RIS sizes at equal gains
                assert len(groups) == len(cfg.n_ris_list) and groups[0][1] == groups[1][1]
            elif scenario == "plos_vs_se":  # equal gains within a blockage state
                assert len(groups) == len(blockage_states(points, key))
            else:  # one group per distance, in order of first appearance
                distances = list(dict.fromkeys(p.sweep_value for p in points))
                assert [members for *_, members in groups] == [
                    [i for i, p in enumerate(points) if p.sweep_value == d] for d in distances]
    if changes:  # the repeated distance's two points write equal rows
        at_100, arms = [r for r in run_scenario(cfg, geom, scenario) if r.sweep_value == 100.0], len(harness.ARMS)
        assert len(at_100) == 2 * arms and at_100[:arms] == at_100[arms:]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_trial_rates_do_not_depend_on_a_split_inside_a_chunk(monkeypatch, scenario):
    # a pool that scores contiguous trial ranges apart and joins them in trial order gets the same arrays, but for
    # the wall seconds, which add an equal share of the chunk's first-step pass to each run
    cfg, geom = replace(sweep_config(), seed=8), GeometryConfig()
    points = harness.sweep_points(cfg, geom, scenario)
    keys = [(cfg.seed, SCENARIOS[scenario], t) for t in range(cfg.mc_trials)]
    monkeypatch.setattr(harness, "CHUNK_BYTES", 2 * per_trial_bytes(points))  # chunks [0, 1] and [2, 3]
    assert harness._chunk_trials([p.cfg for p in points]) == 2
    clock = itertools.count()
    # one tick a pga_optimize call and one a chunk's first-step pass
    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: float(next(clock))))
    whole = harness._trial_rates(points, keys)
    parts = [harness._trial_rates(points, keys[a:b]) for a, b in ((0, 1), (1, 3), (3, 4))]
    for name in ("se", "iterations", "gradient_passes"):
        joined, full = np.concatenate([getattr(part, name) for part in parts], axis=-1), getattr(whole, name)
        assert joined.shape == full.shape and np.array_equal(joined, full), name
    assert (whole.seconds == 1.0 + 1.0 / (2 * len(points))).all()
    for part, trials in zip(parts, (1, 2, 1)):
        assert (part.seconds == 1.0 + 1.0 / (trials * len(points))).all()


# SHA-256 of the desk CSV text of each scenario at seed 0 with 3 trials, recorded with numpy's bundled
# OpenBLAS on x86-64 (another BLAS build may round differently). The reference-seed check in
# test_bench_contract.py allows 1e-6 relative drift; this pins the bytes.
PINNED_DESK_CSV_SHA256 = {
    "distance_vs_se": "7100ea6a0db6a1dd19489ee305bb85f1f185c7b67ce693cb001d0e4a0d531692",
    "plos_vs_se": "4221db59d1eaba35a102a69184696f506fcd0d14f3b580c3e31972c2009681d7",
    "se_vs_snr": "29b263e09f48fc126b3ae623969474880419e2ab235624e1dd5ad6311b5c2125",
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_desk_csv_bytes_are_pinned(scenario):
    cfg, geom = parse_config(None, {"seed": 0, "mc_trials": 3}, preset="desk")
    text = scenario_rows_to_csv(run_scenario(cfg, geom, scenario))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DESK_CSV_SHA256[scenario]


# The same pin at the paper shape (N_t=64, N_r=4, K=24): se_vs_snr at seed 0 with 1 trial, N_ris 64 and 256 at
# -5 and 10 dB, whose four pga runs take 1, 121, 142 and 200 iterations, the last one stopped by the cap.
PINNED_PAPER_CSV_SHA256 = "e96e9af95b7b07280e9df4e34eceaf20497b61af6317ae1377f57a237841b291"


def test_paper_csv_bytes_are_pinned(monkeypatch):
    slabs = []
    score = harness._trial_rates
    monkeypatch.setattr(harness, "_trial_rates", lambda *args: slabs.append(score(*args)) or slabs[-1])
    cfg, geom = parse_config(None, {"seed": 0, "mc_trials": 1}, preset="paper")
    text = scenario_rows_to_csv(run_scenario(cfg, geom, "se_vs_snr"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_PAPER_CSV_SHA256
    [slab] = slabs
    assert sorted(slab.iterations.ravel().tolist()) == [1, 121, 142, cfg.max_iter]


def test_run_scenario_builds_its_sweep_once(monkeypatch):
    built = []
    build = harness.sweep_points
    monkeypatch.setattr(harness, "sweep_points", lambda c, g, s: built.append(s) or build(c, g, s))
    run_scenario(small_config(mc_trials=1), GeometryConfig(), "distance_vs_se")
    assert built == ["distance_vs_se"]


def test_each_point_evaluates_pathloss_once_per_run(monkeypatch):
    # one link budget (a p_los, two direct gains and an indirect gain) per sweep point, however many trials run
    calls = []

    def counting(name):
        function = getattr(propagation, name)
        return lambda *args, **kwargs: calls.append(name) or function(*args, **kwargs)

    for name in ("p_los", "direct_gain", "indirect_gain"):
        monkeypatch.setattr(propagation, name, counting(name))

    def counts(run):
        calls.clear()
        run()
        return {name: calls.count(name) for name in set(calls)}

    def budgets(points):
        return {"p_los": points, "direct_gain": 2 * points, "indirect_gain": points}

    cfg, geom = sweep_config(), GeometryConfig()
    points = len(cfg.snr_db) * len(cfg.plos_grid)
    for trials in (1, 4):
        assert counts(lambda: run_scenario(replace(cfg, mc_trials=trials), geom, "plos_vs_se")) == budgets(points)
    assert counts(lambda: run_trial(cfg, geom, "pga", (cfg.seed, 1, 0), 0.0)) == budgets(1)
    sizes = [4, 9, 16]
    assert counts(lambda: complexity_table(cfg, geom, sizes, trials=2, snr_db=0.0)) == budgets(len(sizes))


def test_complexity_table_draws_in_trial_chunks(monkeypatch):
    # 9 trials, every size in one chunk walk: five chunks of 2 trials (the N_ris=64 budget) or fewer
    cfg, geom = preset_config("desk")
    synthesized, blockage = [], []
    synthesize, make_substream = harness.synthesize_link, harness.substream

    def counting_synthesize(link, c, rngs, los=True):
        synthesized.append((link, c.n_ris, len(rngs)))
        return synthesize(link, c, rngs, los=los)

    def counting_substream(*key):
        if key[3:] == (SITE_BLOCKAGE,):
            blockage.append(key)
        return make_substream(*key)

    monkeypatch.setattr(harness, "synthesize_link", counting_synthesize)
    monkeypatch.setattr(harness, "substream", counting_substream)
    chunked = complexity_table(cfg, geom, [16, 64], seed=7, trials=9, snr_db=10.0)
    for link in (1, 2):
        assert [(n, t) for i, n, t in synthesized if i == link] == [(16, 2), (64, 2)] * 4 + [(16, 1), (64, 1)]
    # each trial's blockage uniform once and its direct link once, whatever the number of sizes
    assert sorted(blockage) == [(7, harness._COMPLEXITY_SCENARIO_ID, t, SITE_BLOCKAGE) for t in range(9)]
    direct = [t for i, _, t in synthesized if i == 3]
    assert 5 <= len(direct) <= 10 and sum(direct) == 9
    monkeypatch.setattr(harness, "CHUNK_BYTES", 1)  # one trial a chunk
    alone = complexity_table(cfg, geom, [16, 64], seed=7, trials=9, snr_db=10.0)
    for key in ("n_ris", "iter_count", "flop_count"):
        assert [row[key] for row in chunked] == [row[key] for row in alone]


def test_complexity_counters_are_pinned():
    # the counters of the C08 acceptance gate's table
    cfg, geom = preset_config("desk")
    rows = complexity_table(cfg, geom, [4, 16, 36, 64], seed=7, trials=10, snr_db=10.0)
    assert [row["iter_count"] for row in rows] == [4.0, 30.7, 83.5, 120.4]
    assert [row["flop_count"] for row in rows] == [3116768.0, 53359932.8, 635106488.0, 3883315270.4]


def per_trial_bytes(points):
    """One trial's bytes at the largest RIS size, the unit of the chunk budget."""
    return max(harness._trial_bytes(p.cfg) for p in points)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_run_scenario_csv_does_not_depend_on_the_chunk_size(monkeypatch, scenario):
    cfg, geom = replace(sweep_config(), mc_trials=5, seed=6), GeometryConfig()
    points = harness.sweep_points(cfg, geom, scenario)
    texts = []
    for trials in (1, 2, cfg.mc_trials):
        monkeypatch.setattr(harness, "CHUNK_BYTES", trials * per_trial_bytes(points))
        assert harness._chunk_trials([p.cfg for p in points]) == trials
        texts.append(scenario_rows_to_csv(run_scenario(cfg, geom, scenario)))
    assert texts[1] == texts[0] and texts[2] == texts[0]
    if scenario == "plos_vs_se":  # some trial needs the direct link in both blockage states
        keys = [(cfg.seed, SCENARIOS[scenario], t) for t in range(cfg.mc_trials)]
        assert any(len(blockage_states(points, key)) == 2 for key in keys)


def test_chunk_rule_one_paper_trial_and_whole_bench_processes():
    paper, _ = preset_config("paper")
    assert harness._chunk_trials([paper.with_n_ris(256)]) == 1
    assert harness._chunk_trials([paper.with_n_ris(n) for n in (64, 256)]) == 1
    # the steering arrays set the desk chunks: bench/run.py's 6-trial desk_blockage_low processes
    # (N_ris 16) are one chunk, its 3-trial desk_snr processes (N_ris 16 and 64) two
    desk, _ = preset_config("desk")
    assert harness._chunk_trials([desk.with_n_ris(n) for n in (16, 64)]) == 2
    assert harness._chunk_trials([desk.with_n_ris(16)]) == 6
    # a huge per-trial stack still gets a chunk of one
    assert harness._chunk_trials([replace(paper, n_subcarriers=4096).with_n_ris(256)]) == 1


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_chunk_steering_arrays_fit_the_byte_budget(monkeypatch, scenario):
    # every synthesize_link call of a desk run holds its rx and tx steering arrays within CHUNK_BYTES
    cfg, geom = parse_config(None, {"mc_trials": 8}, preset="desk")
    sizes = []
    respond = channel.ura_response

    def measured_response(*args):
        out = respond(*args)
        sizes.append(out.nbytes)
        return out

    monkeypatch.setattr(channel, "ura_response", measured_response)
    run_scenario(cfg, geom, scenario)
    pairs = [sizes[i] + sizes[i + 1] for i in range(0, len(sizes), 2)]
    assert pairs and max(pairs) <= harness.CHUNK_BYTES


def test_total_power_for_snr_rejects_a_budget_that_is_not_finite_and_positive():
    cfg, geom = preset_config("desk")
    assert total_power_for_snr(cfg, geom, 300.0) > 0
    for snr_db in (1e6, -1e6):  # overflows to inf, underflows to 0
        with pytest.raises(ValueError, match="power budget"):
            total_power_for_snr(cfg, geom, snr_db)


@pytest.mark.parametrize("changes", [
    {"carrier_freq_hz": 1e300},  # the wavelength's square underflows to 0
    {"carrier_freq_hz": 1e-300},  # the wavelength overflows to inf
    {"d_ref": 1e5, "alpha_los": 200.0, "p_los_override": 1.0},  # (d_ref/d)^alpha overflows
])
def test_total_power_for_snr_names_a_reference_gain_that_is_not_finite_and_positive(changes):
    cfg, geom = preset_config("desk")
    with pytest.raises(ValueError, match="^the (LOS direct|reflected)-path gain is refused") as refusal:
        total_power_for_snr(cfg, replace(geom, **changes), 0.0)
    assert all(f"{key}={value!r}" in str(refusal.value) for key, value in changes.items())


@pytest.mark.usefixtures("no_trial")
def test_a_reflected_path_gain_that_overflows_is_refused_before_any_trial():
    # lam**4 overflows at 1e-80 Hz while the direct path's lam**2 does not; a gain that underflows to 0 is legal
    cfg, geom = small_config(), replace(GeometryConfig(), carrier_freq_hz=1e-80)
    refusals = []
    for run in (lambda: run_scenario(cfg, geom, "se_vs_snr"), lambda: run_trial(cfg, geom, "pga", (0, 1, 0), 0.0),
                lambda: complexity_table(cfg, geom, [4], trials=1, snr_db=0.0)):
        with pytest.raises(ValueError, match="^the reflected-path gain is refused: it overflows to inf") as refusal:
            run()
        refusals.append(str(refusal.value))
    keys = ("carrier_freq_hz", "ant_gain_db", "d_ris", "d_bs_ue", "bs_height", "ue_height")
    assert all(f"{key}=" in text for key in keys for text in refusals)
    far = replace(GeometryConfig(), carrier_freq_hz=1e100)
    assert indirect_gain(far) == 0.0 and 0 < total_power_for_snr(cfg, far, 0.0) < np.inf


@pytest.mark.parametrize("changes, refusal", [
    ({"carrier_freq_hz": 1e-80}, "the reflected-path gain is refused: it overflows"),  # lam**4 overflows
    ({"d_ref": 1e5, "alpha_los": 200.0, "p_los_override": 1.0},
     "the LOS direct-path gain is refused: it overflows"),  # (d_ref/d)^alpha
])
def test_draw_trial_refuses_a_gain_that_overflows_by_name(changes, refusal):
    cfg, geom = preset_config("desk")
    with pytest.raises(ValueError, match=f"^{refusal}") as raised:
        draw_trial(cfg, replace(geom, **changes), (0, 1, 0))
    assert all(f"{key}={value!r}" in str(raised.value) for key, value in changes.items())


def test_cli_refuses_a_drawable_state_whose_gain_underflows_before_any_channel(tmp_path, capsys, monkeypatch):
    # the NLOS gain underflows to 0 while the blockage-averaged reference gain stays positive
    def synthesize_link(*args, **kwargs):
        raise AssertionError("a channel was drawn")

    monkeypatch.setattr(harness, "synthesize_link", synthesize_link)
    out = tmp_path / "x.csv"
    assert cli.main(["simulate", "--scenario", "se_vs_snr", "--preset", "desk", "--set", "alpha_nlos=400",
                     "--trials", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the NLOS direct-path gain is refused: ") and "got 0.0" in err
    keys = ("carrier_freq_hz", "ant_gain_db", "d_ref", "alpha_nlos=400", "d_bs_ue", "bs_height", "ue_height")
    assert all(key in err for key in keys)
    assert not out.exists()


def test_a_state_the_geometry_cannot_draw_is_not_held_to_the_gain_rule():
    cfg, geom = preset_config("desk")
    dead_nlos = replace(geom, p_los_override=1.0, alpha_nlos=400.0)
    p, reference, gains = link_budget(dead_nlos)
    assert (p, set(gains)) == (1.0, {True}) and reference == gains[True].rho_direct
    channels, drawn = draw_trial(cfg, dead_nlos, (0, 1, 0))
    live_channels, live = draw_trial(cfg, replace(geom, p_los_override=1.0), (0, 1, 0))
    assert drawn == live and drawn.los
    np.testing.assert_array_equal(channels.h3, live_channels.h3)


# simulate checks every sweep point's budget, complexity the first SNR's, the one it runs at
@pytest.mark.parametrize("command", [["simulate", "--scenario", "se_vs_snr", "--snr-db=0,1e6"],
                                     ["complexity", "--snr-db=1e6"]], ids=["simulate", "complexity"])
@pytest.mark.usefixtures("no_trial")
def test_cli_rejects_a_non_finite_budget_before_any_trial(tmp_path, capsys, command):
    out = tmp_path / "x.csv"
    assert cli.main([*command, "--preset", "desk", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "power budget" in err and "Traceback" not in err
    assert not out.exists()


# finite, positive budgets whose gain-budget products all fall under the waterfill floor in the first trial
@pytest.mark.parametrize("command", [["simulate", "--scenario", "plos_vs_se", "--snr-db=-140"],
                                     ["simulate", "--scenario", "se_vs_snr", "--snr-db=-170"],
                                     ["complexity", "--snr-db=-170"]], ids=["plos_vs_se", "se_vs_snr", "complexity"])
def test_cli_reports_a_budget_under_the_waterfill_floor_as_an_error(tmp_path, capsys, command):
    out = tmp_path / "X"
    assert cli.main([*command, "--preset", "desk", "--trials", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert "power budget" in err and "ABS_EIG_FLOOR" in err
    assert not out.exists()


def test_cli_simulates_a_distance_whose_budget_dwarfs_every_eigenvalue(tmp_path):
    # at 20 km the budget scales every stream gain far below 1e-15, while lam * p stays O(100)
    out = tmp_path / "far.csv"
    assert cli.main(["simulate", "--scenario", "distance_vs_se", "--preset", "desk", "--trials", "2",
                     "--set", "distance_grid=20000", "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["arm"] for row in rows] == list(harness.ARMS)
    assert all(np.isfinite(float(row["mean_se"])) and float(row["mean_se"]) > 0 for row in rows)


def test_csv_deterministic_and_rfc4180():
    cfg = small_config(mc_trials=2, seed=9)
    geom = GeometryConfig()
    rows1 = run_scenario(cfg, geom, "se_vs_snr")
    rows2 = run_scenario(cfg, geom, "se_vs_snr")
    text1 = scenario_rows_to_csv(rows1)
    text2 = scenario_rows_to_csv(rows2)
    assert text1 == text2
    lines = text1.split("\r\n")
    assert lines[0] == "scenario,sweep_name,sweep_value,arm,n_ris,snr_db,mean_se,stderr_se,trials,seed,d2"
    assert lines[-1] == ""
    assert len(lines) == len(rows1) + 2


def test_complexity_table_rows():
    cfg = small_config()
    geom = GeometryConfig()
    rows = complexity_table(cfg, geom, [4, 16], seed=4, trials=2, snr_db=10.0)
    assert [r["n_ris"] for r in rows] == [4, 16]
    assert rows[1]["flop_count"] > rows[0]["flop_count"]
    text = complexity_rows_to_csv(rows)
    assert text.startswith("n_ris,iter_count,flop_count,runtime_s\r\n")


def test_complexity_runtime_times_the_optimizer_alone(monkeypatch):
    # each trial synthesizes three links and decomposes its start and direct channels in the harness;
    # none of that time may reach runtime_s
    def slowed(function):
        return lambda *args, **kwargs: time.sleep(0.05) or function(*args, **kwargs)

    for name in ("synthesize_link", "channel_eigvals"):
        monkeypatch.setattr(harness, name, slowed(getattr(harness, name)))
    rows = complexity_table(small_config(), GeometryConfig(), [4, 9], seed=4, trials=2, snr_db=10.0)
    assert all(row["runtime_s"] < 0.05 for row in rows), rows


def test_cli_simulate_and_complexity(tmp_path):
    out = tmp_path / "results.csv"
    cmd = [sys.executable, "-m", "rislink", "simulate", "--scenario", "se_vs_snr",
           "--preset", "desk", "--seed", "3", "--trials", "2", "--snr-db=0",
           "--set", "n_ris_list=4", "--set", "tx_rows=2", "--set", "tx_cols=2",
           "--set", "n_subcarriers=6", "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    content = out.read_bytes()
    assert content.startswith(b"scenario,")
    assert len(content.split(b"\r\n")) == 5  # header + 3 arms + trailing

    table = tmp_path / "table.csv"
    cmd = [sys.executable, "-m", "rislink", "complexity", "--preset", "desk", "--seed", "3",
           "--trials", "2", "--n-ris", "4,16", "--snr-db=10",
           "--set", "tx_rows=2", "--set", "tx_cols=2", "--set", "n_subcarriers=6",
           "--out", str(table)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert table.read_text().startswith("n_ris,")

    bad = subprocess.run([sys.executable, "-m", "rislink", "simulate", "--scenario",
                          "se_vs_snr", "--set", "bogus=1"], capture_output=True, text=True)
    assert bad.returncode == 2
    assert "unknown configuration key" in bad.stderr


def test_run_scenario_never_imports_numpy_fft():
    # the subcarrier responses are one DFT product, so a run never pays for numpy's lazy FFT import
    code = """
import sys
from rislink.harness import parse_config, run_scenario
for scenario in ("se_vs_snr", "plos_vs_se"):
    cfg, geom = parse_config(None, {"mc_trials": 2, "n_ris_list": (16,), "snr_db": (0.0,)}, preset="desk")
    assert run_scenario(cfg, geom, scenario)
print("numpy.fft" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.usefixtures("no_trial")
def test_cli_set_without_value_exits_2_before_any_trial(capsys):
    assert cli.main(["simulate", "--scenario", "se_vs_snr", "--preset", "desk", "--set", "foo"]) == 2
    assert "error: --set expects KEY=VALUE, got 'foo'" in capsys.readouterr().err


def complexity_csv(tmp_path, *flags) -> list[dict]:
    """Rows of the table `rislink complexity --preset desk <flags>` writes."""
    out = tmp_path / "table.csv"
    assert cli.main(["complexity", "--preset", "desk", *flags, "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_complexity_reads_sizes_and_trials_from_config(tmp_path):
    conf = tmp_path / "run.cfg"
    conf.write_text("n_ris_list = 9\n", encoding="utf-8")
    for flags in (("--set", "n_ris_list=9"), ("--config", str(conf))):
        assert [row["n_ris"] for row in complexity_csv(tmp_path, "--trials", "1", *flags)] == ["9"]
    # the flag overrides the key, as --snr-db does snr_db
    rows = complexity_csv(tmp_path, "--trials", "1", "--n-ris", "4", "--set", "n_ris_list=9")
    assert [row["n_ris"] for row in rows] == ["4"]
    # mc_trials is the trial count whether it comes from --set or --trials
    counters = [[(row["n_ris"], row["iter_count"], row["flop_count"]) for row in complexity_csv(tmp_path, *f)]
                for f in (("--set", "mc_trials=1"), ("--trials", "1"))]
    assert counters[0] == counters[1]
    assert [n for n, _, _ in counters[0]] == ["16", "64"]  # the desk preset's sizes


@pytest.mark.parametrize("command", [["simulate", "--scenario", "distance_vs_se"], ["complexity"]],
                         ids=["simulate", "complexity"])
@pytest.mark.usefixtures("no_trial")
def test_cli_rejects_unwritable_out_before_any_trial(tmp_path, capsys, command):
    for out in (tmp_path / "no" / "such" / "dir" / "x.csv", tmp_path):
        assert cli.main([*command, "--preset", "desk", "--trials", "2", "--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
