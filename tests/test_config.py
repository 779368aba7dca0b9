import ast
import re
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest

from rislink import config
from rislink.config import COUNT, NONNEGATIVE, POSITIVE, UNIT_INTERVAL, Range, is_integer, preset_config
from rislink.propagation import LinkGains


@pytest.mark.parametrize("value, verdict", [
    (5, True),
    (np.int64(5), True),
    (np.uint8(3), True),
    (True, False),
    (np.bool_(True), False),
    (2.5, False),
    ("3", False),
], ids=repr)
def test_is_integer_verdicts(value, verdict):
    assert is_integer(value) is verdict


@pytest.mark.parametrize("preset", ["desk", "paper"])
def test_configs_are_frozen_hashable_values(preset):
    cfg, geom = preset_config(preset)
    twin_cfg, twin_geom = preset_config(preset)
    assert cfg is not twin_cfg and cfg == twin_cfg and hash(cfg) == hash(twin_cfg)
    assert geom is not twin_geom and geom == twin_geom and hash(geom) == hash(twin_geom)
    assert len({cfg, twin_cfg, replace(cfg, seed=cfg.seed + 1)}) == 2
    with pytest.raises(FrozenInstanceError):
        cfg.seed = 1
    with pytest.raises(FrozenInstanceError):
        geom.d_bs_ue = 150.0
    # a spec is built once per config, and a changed config builds its own
    assert cfg.tx_spec is cfg.tx_spec and cfg.rx_spec is cfg.rx_spec and cfg.ris_spec is cfg.ris_spec
    assert cfg.ris_spec == twin_cfg.ris_spec
    assert cfg.with_n_ris(4 * cfg.n_ris).ris_spec.n_elements == 4 * cfg.n_ris


def test_config_module_is_a_leaf():
    # every other module imports the configs, so this one may import nothing from the package
    def from_package(node):
        if isinstance(node, ast.ImportFrom):
            return node.level > 0 or (node.module or "").split(".")[0] == "rislink"
        return isinstance(node, ast.Import) and any(a.name.split(".")[0] == "rislink" for a in node.names)

    tree = ast.parse(Path(config.__file__).read_text(encoding="utf-8"))
    assert [ast.unparse(node) for node in ast.walk(tree) if from_package(node)] == []



# A base that every single-field value below keeps valid: n_taps at one tap
# lets n_subcarriers reach its bound of 1 without breaking the cross-field check.
WALK_BASES = {config.UraSpec: {"rows": 2, "cols": 2}, config.GeometryConfig: {},
              config.SystemConfig: {"n_taps": (1, 1, 1)},
              LinkGains: {"rho_direct": 1.0, "rho_indirect": 1.0, "los": True}}


def numeric_field_cases():
    """(class, field name, builder of a one-field value, is int, declared range) of every numeric field."""
    for cls in WALK_BASES:
        hints = get_type_hints(cls)
        for f in fields(cls):
            hint = hints[f.name]
            args = get_args(hint)
            if not {int, float} & {hint, *args}:
                continue
            is_int = int in (hint, *args)
            if get_origin(hint) is tuple:
                count = 1 if Ellipsis in args else len(args)
                wrap = lambda v, count=count: (v,) * count
            else:
                wrap = lambda v: v
            yield pytest.param(cls, f.name, wrap, is_int, f.metadata.get("range", COUNT if is_int else Range()),
                               id=f"{cls.__name__}.{f.name}")


@pytest.mark.parametrize("cls, name, wrap, is_int, valid", numeric_field_cases())
def test_numeric_rule_walk_refuses_each_bad_value_and_accepts_each_closed_bound(cls, name, wrap, is_int, valid):
    def build(value):
        return cls(**{**WALK_BASES[cls], name: value})

    bad = [True, 2.5, 3.0, np.nan] if is_int else [True, np.bool_(False), np.nan, np.inf, -np.inf, "1"]
    low, closed, high = valid
    if is_int:
        low = int(low)  # an int field's bound as an int, so that low - 1 breaks the range, not the type
    if low > -np.inf:
        bad.append((low - 1 if is_int else np.nextafter(low, -np.inf)) if closed else low)
    if high < np.inf:
        bad.append(np.nextafter(high, np.inf))
    for item in bad:
        value = wrap(item)
        with pytest.raises(ValueError, match=f"^{name} must hold ") as refusal:
            build(value)
        assert str(refusal.value).endswith(f", got {value!r}")
    for bound in [b for b, is_closed in ((low, closed), (high, True)) if is_closed and abs(b) < np.inf]:
        assert getattr(build(wrap(bound)), name) == wrap(bound)


def test_numeric_rule_walk_covers_the_declared_ranges():
    declared = {case.values[:2]: case.values[4] for case in numeric_field_cases()}
    named = {
        POSITIVE: ["UraSpec.spacing_wavelengths", "SystemConfig.spacing_wavelengths", "GeometryConfig.d_bs_ue",
                   "GeometryConfig.bs_height", "GeometryConfig.ue_height", "GeometryConfig.d_ris",
                   "GeometryConfig.carrier_freq_hz", "GeometryConfig.d_ref", "SystemConfig.mu0",
                   "SystemConfig.epsilon", "LinkGains.rho_direct"],
        NONNEGATIVE: ["SystemConfig.rician_k", "SystemConfig.angular_spread_deg", "GeometryConfig.alpha_los",
                      "GeometryConfig.alpha_nlos", "SystemConfig.seed", "LinkGains.rho_indirect"],
        UNIT_INTERVAL: ["GeometryConfig.p_los_override", "SystemConfig.plos_grid"],
        Range(config.DISTANCE_D_RIS, closed=False): ["SystemConfig.distance_grid"],
        Range(-300.0, high=300.0): ["GeometryConfig.ant_gain_db"],
        Range(): ["SystemConfig.snr_db"],
    }
    for valid, names in named.items():
        for qualified in names:
            cls_name, name = qualified.split(".")
            assert declared.pop((next(c for c in WALK_BASES if c.__name__ == cls_name), name)) == valid, qualified
    assert set(declared.values()) == {COUNT}  # every other numeric field is an int count >= 1
    # None passes only where the annotation admits it
    assert config.GeometryConfig(p_los_override=None).p_los_override is None
    with pytest.raises(ValueError, match="^mu0 must hold finite numbers > 0, got None"):
        config.SystemConfig(mu0=None)


@pytest.mark.parametrize("name, value", [("n_taps", ()), ("n_taps", (3, 4)), ("n_taps", (3, 4, 5, 6)),
                                         ("snr_db", ()), ("n_ris_list", []), ("snr_db", 5.0)])
def test_numeric_rule_refuses_a_tuple_of_the_wrong_length(name, value):
    with pytest.raises(ValueError, match=f"^{name} must hold .* tuple or list.*, got {re.escape(repr(value))}$"):
        config.SystemConfig(**{name: value})
