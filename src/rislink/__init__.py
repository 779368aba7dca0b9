"""Link-level simulator for RIS-assisted wideband mmWave MIMO-OFDM downlinks.

The package synthesizes frequency-selective Rician geometric channels for the
three links of a BS -> RIS -> UE topology, models blockage and pathloss on the
direct path, and jointly tunes the RIS phase shifts (projected gradient ascent
on the unit-modulus diagonal) and the per-subcarrier transmit covariances
(spatial-frequency waterfilling) to maximize spectral efficiency.

Import each name from the module that defines it, for example
`from rislink.harness import run_scenario`; the package root holds only
`__version__`, so importing one module loads only what that module imports.
"""

__version__ = "0.1.0"
