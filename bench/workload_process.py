"""One workload process: run one rislink scenario and report on it.

run.py starts this script in a fresh interpreter with a JSON spec as its only
argument and reads one JSON line from its standard output. The script imports
rislink from the checkout's `src/`, builds the configs with `parse_config`,
calls `run_scenario` once and serializes with `scenario_rows_to_csv`.
`t_ready` is taken once the configs are built, on the system-wide monotonic
clock that run.py also reads, so run.py can time set-up from process start.
A fixed speed probe runs right after set-up and right after the timed
`run_scenario` call, outside both timings, so run.py can tell how fast the
host ran meanwhile.
"""

import json
import os
import resource
import sys
import time


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def speed_probe() -> list:
    """Seconds taken by two fixed mixes: small numpy calls, and pure Python.

    The first resembles the numpy-bound part of the workloads (small Hermitian
    eigensolves, complex matrix products), the second their interpreter
    overhead. Neither touches rislink code, so a change to rislink cannot move
    them; the host's speed can. Over blocks of ten identical processes on a
    noisy 2-core host, scaling by the mean slowdown of the two parts left
    less spread on both desk workloads than either part alone.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    a = a @ a.conj().T
    b = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
    t0 = time.perf_counter()
    for _ in range(200):
        np.linalg.eigh(a)
        b @ b
        sum((k * 0.5) ** 2 for k in range(40))
    t1 = time.perf_counter()
    for _ in range(1500):
        counts: dict = {}
        for k in range(60):
            counts[k % 7] = counts.get(k % 7, 0.0) + k * 0.5
    return [t1 - t0, time.perf_counter() - t1]


def main() -> None:
    spec = json.loads(sys.argv[1])
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    from rislink import harness

    if not os.path.abspath(harness.__file__).startswith(src + os.sep):
        raise SystemExit(f"rislink was imported from {harness.__file__}, not from {src}")

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()

    overrides = {k: tuple(v) if isinstance(v, list) else v for k, v in spec["overrides"].items()}
    cfg, geom = harness.parse_config(None, overrides, preset=spec["preset"])
    t_ready = time.perf_counter()
    speed_probe()  # warm-up: first calls into LAPACK and the allocator
    probe_before = speed_probe()
    t_run = time.perf_counter()
    rows = harness.run_scenario(cfg, geom, spec["scenario"])
    text = harness.scenario_rows_to_csv(rows)
    run_s = time.perf_counter() - t_run
    probe_after = speed_probe()

    cells = len(rows) * cfg.mc_trials
    report = {
        "t_ready": t_ready,
        "run_s": run_s,
        "probe_s": [probe_before, probe_after],
        "cells": cells,
        "csv": text,
        # Its own peak plus the largest peak of any child it waited for (ru_maxrss
        # keeps no sum), so a worker pool inside run_scenario is not missed.
        "peak_rss_kib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
        "machine": machine_record(),
    }
    if tracer is not None:
        report["layers"] = tracer.metrics(cells)
        report["missing"] = sorted(tracer.missing)
        report["sites"] = tracer.sites
        if spec.get("spans_out"):
            tracer.write_spans(spec["spans_out"])
    print(json.dumps(report))


if __name__ == "__main__":
    main()
