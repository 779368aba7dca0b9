"""Link-level simulator for RIS-assisted wideband mmWave MIMO-OFDM downlinks.

The package synthesizes frequency-selective Rician geometric channels for the
three links of a BS -> RIS -> UE topology, models blockage and pathloss on the
direct path, and jointly tunes the RIS phase shifts (projected gradient ascent
on the unit-modulus diagonal) and the per-subcarrier transmit covariances
(spatial-frequency waterfilling) to maximize spectral efficiency.
"""

from .channel import (
    ClusterRaySet,
    FreqChannelSet,
    geometric_tap,
    rician_tap,
    synthesize_link,
    taps_to_subcarriers,
    ura_response,
)
from .config import GeometryConfig, SystemConfig, UraSpec, parse_config, preset_config
from .flops import FlopMeter
from .harness import ScenarioResult, complexity_table, run_scenario, run_trial
from .pga import PgaResult, gradient_phi, pga_optimize, project_unit_modulus
from .power import (
    PowerAllocation,
    build_covariances,
    channel_eigvals,
    waterfill,
    waterfill_covariances,
    waterfill_eigenpairs,
)
from .propagation import (
    LinkGains,
    direct_gain,
    indirect_gain,
    link_distances,
    p_los,
    sample_blockage,
)
from .rate import (
    RisPhases,
    equivalent_channel,
    fold_gains,
)
from .rng import substream

__version__ = "0.1.0"

__all__ = [
    "ClusterRaySet",
    "FlopMeter",
    "FreqChannelSet",
    "GeometryConfig",
    "LinkGains",
    "PgaResult",
    "PowerAllocation",
    "RisPhases",
    "ScenarioResult",
    "SystemConfig",
    "UraSpec",
    "build_covariances",
    "channel_eigvals",
    "complexity_table",
    "direct_gain",
    "equivalent_channel",
    "fold_gains",
    "geometric_tap",
    "gradient_phi",
    "indirect_gain",
    "link_distances",
    "p_los",
    "parse_config",
    "pga_optimize",
    "preset_config",
    "project_unit_modulus",
    "rician_tap",
    "run_scenario",
    "run_trial",
    "sample_blockage",
    "substream",
    "synthesize_link",
    "taps_to_subcarriers",
    "ura_response",
    "waterfill",
    "waterfill_covariances",
    "waterfill_eigenpairs",
]
