import ast
import csv
import hashlib
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import get_origin, get_type_hints

import numpy as np
import pytest

from rislink import channel, cli, harness, power
from rislink.config import GeometryConfig, SystemConfig, parse_config, preset_config
from rislink.harness import (
    SCENARIOS,
    complexity_rows_to_csv,
    complexity_table,
    draw_trial,
    reference_gain,
    run_scenario,
    run_trial,
    scenario_rows_to_csv,
    total_power_for_snr,
)
from rislink.pga import pga_optimize
from rislink.propagation import direct_gain, link_distances, p_los
from rislink.rate import RisPhases, equivalent_channel, fold_gains
from rislink.rng import SITE_BLOCKAGE, SITE_PHASES, substream


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


def test_parse_config_rejects_unknown_and_malformed(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown configuration key"):
        parse_config(str(bad))
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("just words\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_config(str(malformed))
    with pytest.raises(ValueError):
        parse_config(None, overrides={"mc_trials": "0"})


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
    with pytest.raises(ValueError, match="n_ris must be an integer >= 1"):
        small_config().with_n_ris(n_ris)


@pytest.mark.parametrize("sizes, trials, match", [([0], 1, "n_ris"), ([4, -4], 1, "n_ris"), ([4], 0, "trials"),
                                                   ([4], 1.5, "trials")])
def test_complexity_table_rejects_bad_sizes_and_trials_before_any_trial(monkeypatch, sizes, trials, match):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_trial_draws", no_trial)
    with pytest.raises(ValueError, match=f"{match} must be an integer >= 1"):
        complexity_table(small_config(), GeometryConfig(), sizes, trials=trials, snr_db=0.0)


@pytest.mark.parametrize("seed", [1.5, -1, "3"])
def test_complexity_table_rejects_a_bad_seed_before_any_trial(monkeypatch, seed):
    # the config's rule for seed: an integer >= 0, never truncated
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_trial_draws", no_trial)
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        complexity_table(small_config(), GeometryConfig(), [4], seed, trials=1, snr_db=0.0)


@pytest.mark.parametrize("build, field", [
    (lambda: SystemConfig(snr_db=5.0), "snr_db"),
    (lambda: parse_config(None, {"n_ris_list": 16}, preset="desk"), "n_ris_list"),
    (lambda: GeometryConfig(d_bs_ue="200"), "d_bs_ue"),
], ids=["float-for-tuple", "int-override-for-tuple", "str-for-float"])
def test_config_rejects_a_wrongly_typed_value_naming_the_field(build, field):
    with pytest.raises(ValueError, match=f"^{field} must hold"):
        build()


@pytest.mark.parametrize("build, field", [
    (lambda: SystemConfig(mc_trials=True), "mc_trials"),
    (lambda: SystemConfig(n_ris_list=(True,)), "n_ris_list"),
    (lambda: SystemConfig(seed=False), "seed"),
    (lambda: SystemConfig(mu0=True), "mu0"),
    (lambda: complexity_table(small_config(), GeometryConfig(), [4], True, trials=1, snr_db=0.0), "seed"),
    (lambda: complexity_table(small_config(), GeometryConfig(), [4], trials=True, snr_db=0.0), "trials"),
], ids=["int-field", "int-tuple-item", "seed", "float-field", "complexity-seed", "complexity-trials"])
def test_config_rejects_a_bool_in_a_numeric_field(monkeypatch, build, field):
    # bool is a numbers.Integral, but neither a count nor a real parameter
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_trial_draws", no_trial)
    with pytest.raises(ValueError, match=f"^{field} must"):
        build()


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
    assert reference_gain(geom) == pytest.approx(expected, rel=1e-12)
    forced = replace(geom, p_los_override=1.0)
    assert reference_gain(forced) == pytest.approx(direct_gain(geom, True), rel=1e-12)
    cfg = small_config()
    assert total_power_for_snr(cfg, forced, 0.0) == pytest.approx(
        cfg.n_subcarriers / direct_gain(geom, True), rel=1e-12)


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
def test_run_scenario_refuses_geometry_it_sets(monkeypatch, scenario, key, value):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_trial_draws", no_trial)
    geom = replace(GeometryConfig(), **{key: value})
    with pytest.raises(ValueError, match=f"{scenario} sets {key} itself"):
        run_scenario(small_config(), geom, scenario)


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
    assert [p for _, _, p, *_ in points] == [total_power_for_snr(c, g, snr) for c, g, _, _, _, snr in points]
    column = harness.ARMS.index("random_phases")
    for t in range(2):
        key = (cfg.seed, SCENARIOS[scenario], t)
        both = harness._trial_rates(points, [key])[0][:, column, 0]
        alone = harness._trial_rates(points, [key], arms=("random_phases",))[0][:, 0, 0]
        assert np.array_equal(both, alone)
        starts = [pga_optimize(fold_gains(channels, gains), power, mu0=cfg.mu0, epsilon=cfg.epsilon,
                               max_iter=cfg.max_iter, phi0=phi0).start_rate
                  for (channels, gains, phi0), (_, _, power, *_) in zip(harness._trial_draws(points, [key]), points)]
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
    se = harness._trial_rates(points, keys)[0]
    for i, (c, g, _, _, _, snr) in enumerate(points):
        for a, arm in enumerate(harness.ARMS):
            assert se[i, a].tolist() == [run_trial(c, g, arm, key, snr) for key in keys], (i, arm)
    if scenario == "plos_vs_se":  # some trial sees both blockage states
        assert any(len({draw_trial(c, g, key)[1].los for c, g, *_ in points}) == 2 for key in keys)


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
        _, records = harness._trial_rates(points, keys, arms)
        assert runs == [] and not records.any(), arms
    _, records = harness._trial_rates(points, keys, ("pga",))
    assert len(runs) == len(points) * len(keys)
    assert records.shape == (len(points), 3, len(keys))
    assert (records[:, 1] >= 1).all() and (records[:, 2] > 0).all()  # every run takes a gradient pass


def test_trial_rates_records_each_pga_run():
    # the records of a draw are the counters of the optimizer run on that folded draw
    cfg, geom = preset_config("desk")
    points = harness.sweep_points(cfg, geom, "se_vs_snr")
    keys = [(cfg.seed, SCENARIOS["se_vs_snr"], t) for t in range(2)]
    _, records = harness._trial_rates(points, keys)
    for n, (channels, gains, phi0) in enumerate(harness._trial_draws(points, keys)):
        t, i = divmod(n, len(points))
        c, _, budget = points[i][:3]
        result = pga_optimize(fold_gains(channels, gains), budget, mu0=c.mu0, epsilon=c.epsilon,
                              max_iter=c.max_iter, phi0=phi0)
        assert records[i, :2, t].tolist() == [result.iterations, result.gradient_passes], (i, t)
    assert len(set(records[:, 0].ravel())) > 1


def test_one_trial_kernel_calls_the_optimizer():
    # the scenarios and the complexity table score their trials through one kernel: the package calls
    # pga_optimize only in harness._trial_rates and never passes it a meter
    sites, meters = [], []
    for path in sorted(Path(harness.__file__).parent.rglob("*.py")):
        owner = {}
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            scope = f"{path.stem}.{node.name}" if isinstance(node, ast.FunctionDef) else owner.get(node, path.stem)
            owner.update(dict.fromkeys(ast.iter_child_nodes(node), scope))
            if isinstance(node, ast.Call):
                if getattr(node.func, "id", getattr(node.func, "attr", None)) == "pga_optimize":
                    sites.append(scope)
                meters += [scope for keyword in node.keywords if keyword.arg == "meter"]
    assert sites == ["harness._trial_rates"]
    assert meters == []


def test_trial_decomposes_each_distinct_channel_once(monkeypatch):
    # one plos_vs_se chunk: the start and the direct channel once per (trial, blockage state), plus one
    # decomposition per optimizer candidate, whichever module makes the call
    cfg, geom = preset_config("desk")
    points = harness.sweep_points(cfg, geom, "plos_vs_se")
    keys = [(cfg.seed, SCENARIOS["plos_vs_se"], t) for t in range(3)]
    assert len(keys) <= harness._chunk_trials(points)
    expected = {}  # (trial, blockage state) -> (start channel, direct channel)
    for n, (channels, gains, phi0) in enumerate(harness._trial_draws(points, keys)):
        folded = fold_gains(channels, gains)
        expected[n // len(points), gains.los] = (equivalent_channel(folded, phi0), folded.h3)
    assert len(expected) > len(keys)  # some trial sees both blockage states

    decomposed, iterations = [], []
    eigvals, optimize = power.channel_eigvals, harness.pga_optimize
    for module in (power, harness):
        monkeypatch.setattr(module, "channel_eigvals", lambda heq, noise_var: decomposed.append(heq)
                            or eigvals(heq, noise_var), raising=False)

    def counting_optimize(*args, **kwargs):
        result = optimize(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(harness, "pga_optimize", counting_optimize)
    harness._trial_rates(points, keys)
    assert len(iterations) == len(points) * len(keys)
    assert len(decomposed) == 2 * len(expected) + sum(iterations)
    for start, direct in expected.values():
        assert sum(np.array_equal(heq, start) for heq in decomposed) == 1
        assert sum(np.array_equal(heq, direct) for heq in decomposed) == 1


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


def test_run_scenario_builds_its_sweep_once(monkeypatch):
    checked = []
    check = harness.check_scenario_geometry
    monkeypatch.setattr(harness, "check_scenario_geometry", lambda g, s: checked.append(s) or check(g, s))
    run_scenario(small_config(mc_trials=1), GeometryConfig(), "distance_vs_se")
    assert checked == ["distance_vs_se"]


def test_trial_draws_evaluate_pathloss_once_per_point(monkeypatch):
    cfg, geom = sweep_config(), GeometryConfig()
    points = harness.sweep_points(cfg, geom, "plos_vs_se")  # budgets read pathloss too; count the draws alone
    calls = []

    def counting(name):
        function = getattr(harness, name)
        return lambda *args, **kwargs: calls.append(name) or function(*args, **kwargs)

    for name in ("p_los", "direct_gain", "indirect_gain"):
        monkeypatch.setattr(harness, name, counting(name))
    counts = []
    for trials in (1, 4):
        calls.clear()
        list(harness._trial_draws(points, [(cfg.seed, SCENARIOS["plos_vs_se"], t) for t in range(trials)]))
        counts.append({name: calls.count(name) for name in set(calls)})
    assert counts[0] == counts[1]
    assert counts[0]["p_los"] == len(points) and counts[0]["direct_gain"] and counts[0]["indirect_gain"]


def test_complexity_table_draws_in_trial_chunks(monkeypatch):
    # 9 trials: two chunks at N_ris=16 (6 a chunk), five at N_ris=64 (2 a chunk)
    cfg, geom = preset_config("desk")
    synthesized = []
    synthesize = harness.synthesize_link

    def counting_synthesize(link, c, rngs, los=True):
        synthesized.append((link, c.n_ris, len(rngs)))
        return synthesize(link, c, rngs, los=los)

    monkeypatch.setattr(harness, "synthesize_link", counting_synthesize)
    chunked = complexity_table(cfg, geom, [16, 64], seed=7, trials=9, snr_db=10.0)
    for link in (1, 2):
        assert [(n, t) for i, n, t in synthesized if i == link] == [(16, 6), (16, 3)] + [(64, 2)] * 4 + [(64, 1)]
    # the direct link once per blockage state present in a chunk
    direct = [(n, t) for i, n, t in synthesized if i == 3]
    assert 7 <= len(direct) <= 14 and all(sum(t for n, t in direct if n == size) == 9 for size in (16, 64))
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
    return max(harness._trial_bytes(c) for c, *_ in points)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_run_scenario_csv_does_not_depend_on_the_chunk_size(monkeypatch, scenario):
    cfg, geom = replace(sweep_config(), mc_trials=5, seed=6), GeometryConfig()
    points = harness.sweep_points(cfg, geom, scenario)
    texts = []
    for trials in (1, 2, cfg.mc_trials):
        monkeypatch.setattr(harness, "CHUNK_BYTES", trials * per_trial_bytes(points))
        assert harness._chunk_trials(points) == trials
        texts.append(scenario_rows_to_csv(run_scenario(cfg, geom, scenario)))
    assert texts[1] == texts[0] and texts[2] == texts[0]
    if scenario == "plos_vs_se":  # some trial needs the direct link in both blockage states
        keys = [(cfg.seed, SCENARIOS[scenario], t) for t in range(cfg.mc_trials)]
        assert any(len({draw_trial(c, g, key)[1].los for c, g, *_ in points}) == 2 for key in keys)


def test_chunk_rule_one_paper_trial_and_whole_bench_processes():
    paper, geom = preset_config("paper")
    assert harness._chunk_trials([(paper.with_n_ris(256), geom)]) == 1
    assert harness._chunk_trials([(paper.with_n_ris(n), geom) for n in (64, 256)]) == 1
    # the steering arrays set the desk chunks: bench/run.py's 6-trial desk_blockage_low processes
    # (N_ris 16) are one chunk, its 3-trial desk_snr processes (N_ris 16 and 64) two
    desk, _ = preset_config("desk")
    assert harness._chunk_trials([(desk.with_n_ris(n), geom) for n in (16, 64)]) == 2
    assert harness._chunk_trials([(desk.with_n_ris(16), geom)]) == 6
    # a huge per-trial stack still gets a chunk of one
    assert harness._chunk_trials([(replace(paper, n_subcarriers=4096).with_n_ris(256), geom)]) == 1


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


# simulate checks every sweep point's budget, complexity the first SNR's, the one it runs at
@pytest.mark.parametrize("command", [["simulate", "--scenario", "se_vs_snr", "--snr-db=0,1e6"],
                                     ["complexity", "--snr-db=1e6"]], ids=["simulate", "complexity"])
def test_cli_rejects_a_non_finite_budget_before_any_trial(monkeypatch, tmp_path, capsys, command):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_trial_draws", no_trial)
    out = tmp_path / "x.csv"
    assert cli.main([*command, "--preset", "desk", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "power budget" in err and "Traceback" not in err
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


def test_cli_set_without_value_exits_2_before_any_trial(monkeypatch, capsys):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_trial_draws", no_trial)
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
def test_cli_rejects_unwritable_out_before_any_trial(monkeypatch, tmp_path, capsys, command):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_trial_draws", no_trial)
    for out in (tmp_path / "no" / "such" / "dir" / "x.csv", tmp_path):
        assert cli.main([*command, "--preset", "desk", "--trials", "2", "--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
