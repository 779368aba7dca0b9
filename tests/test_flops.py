import numpy as np

from rislink.channel import FreqChannelSet
from rislink.flops import FlopMeter
from rislink.pga import pga_optimize
from rislink.rng import substream


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def instrumented_run(n_ris, seed=7, k=2, n_r=2, n_t=4, power=25.0):
    rng = substream(seed, n_ris)
    ch = FreqChannelSet(h1=crandn(rng, k, n_ris, n_t), h2=crandn(rng, k, n_r, n_ris),
                        h3=crandn(rng, k, n_r, n_t))
    meter = FlopMeter()
    result = pga_optimize(ch, power, rng=rng, meter=meter)
    return meter, result.iterations


def test_counters_deterministic():
    (a, a_iters), (b, b_iters) = instrumented_run(16), instrumented_run(16)
    assert a.complex_mults == b.complex_mults
    assert a.real_ops == b.real_ops
    assert a_iters == b_iters
    assert a.flop_total == b.flop_total


def test_ledger_totals_pinned():
    # the analytical ledger's totals for two fixed runs; a change to where or
    # how the cost is booked must leave them unchanged
    for n_ris, flop_total, real_ops, iterations in ((4, 577232.0, 1280.0, 63),
                                                    (16, 27236244.0, 4020.0, 200)):
        meter, iters = instrumented_run(n_ris)
        assert (meter.flop_total, meter.real_ops, iters) == (flop_total, real_ops, iterations)


def test_flops_grow_with_ris_size():
    small, _ = instrumented_run(4)
    large, _ = instrumented_run(16)
    assert large.flop_total > small.flop_total


def test_per_iteration_flops_scaling_slope():
    # log-log slope of per-iteration flops vs N_RIS across {4,16,36,64} falls
    # in (2, 3): the cubic covariance-rebuild term dominates at the top of the
    # range, the quadratic gradient terms below.
    sizes = np.array([4, 16, 36, 64])
    per_iter = []
    for n in sizes:
        meter, iters = instrumented_run(int(n))
        assert iters >= 1
        per_iter.append(meter.flop_total / iters)
    slope = np.polyfit(np.log(sizes), np.log(per_iter), 1)[0]
    assert 2.0 < slope < 3.0

