import ast
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from rislink import config
from rislink.config import is_integer, preset_config


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

