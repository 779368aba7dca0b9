"""The PGA ascent loop written once more on the public kernels, one member at a time, to check `pga.ascend` against.

It shares the kernels (`gradient_phi`, `project_unit_modulus`, `waterfill_covariances`) with the optimizer but not
its loop: no member axis, no lockstep step and no row-wise waterfill of a stack's candidates.
"""

import numpy as np

from rislink.pga import MU_FLOOR, gradient_phi, project_unit_modulus
from rislink.power import waterfill_covariances
from rislink.rate import RisPhases, equivalent_channel


def reference_pga(channels, total_power, phi0, mu0=0.1, epsilon=1e-3, max_iter=200, gradient=gradient_phi):
    """The ascent loop on the public kernels, with a validated RisPhases at every iterate."""
    phi = phi0
    alloc = waterfill_covariances(equivalent_channel(channels, phi), total_power)
    trace = [alloc.rate]
    mu, iterations, stop_reason = mu0, 0, "max_iter"
    while iterations < max_iter:
        grad = gradient(channels, alloc, phi)
        scale = np.max(np.abs(grad))
        # the phase derivative d rate / d theta_i is -2 Im(phi_i g_i), relative to the gradient's scale
        stationarity = np.max(np.abs(np.imag(phi.diag * grad))) / scale if scale > 0.0 else 0.0
        if scale == 0.0:
            stop_reason = "zero_gradient"
            break
        new_phi = RisPhases(project_unit_modulus(phi.diag + (mu / scale) * grad.conj(), fallback=phi.diag))
        new_alloc = waterfill_covariances(equivalent_channel(channels, new_phi), total_power)
        iterations += 1
        delta = new_alloc.rate - alloc.rate
        if delta > 0:
            phi, alloc = new_phi, new_alloc
        else:
            mu /= 10.0
        trace.append(alloc.rate)
        if abs(delta) < epsilon:
            stop_reason = "tolerance"
            break
        if mu < MU_FLOOR:
            stop_reason = "mu_floor"
            break
    return phi, np.asarray(trace), iterations, stop_reason, stationarity


def assert_is_reference_run(result, channels, total_power, phi0, gradient=gradient_phi, **kw):
    """Require the `PgaResult` `result`, a run from `phi0`, to be the reference loop's run at these arguments."""
    phi, trace, iterations, stop_reason, stationarity = reference_pga(channels, total_power, phi0,
                                                                      gradient=gradient, **kw)
    assert np.array_equal(result.trace, trace)
    assert np.array_equal(result.phi.diag, phi.diag)
    assert (result.iterations, result.stop_reason) == (iterations, stop_reason)
    assert result.converged == (stop_reason in ("tolerance", "zero_gradient"))
    assert result.gradient_passes == iterations + (stop_reason == "zero_gradient")
    assert result.rate == trace[-1] and result.start_rate == trace[0]
    np.testing.assert_allclose(result.stationarity, stationarity, rtol=1e-12, atol=0.0)
