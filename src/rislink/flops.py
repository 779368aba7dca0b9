"""FLOP accounting for the joint phase/power optimization loop.

The count is an analytical ledger, not hardware-measured arithmetic: the pure
function `pga_run_cost` prices one optimizer run from its problem shape
(K, N_r, N_t, N_RIS) and how many gradient passes and waterfill solves it
made. Named matrix products are costed per subcarrier (complex multiply = 6
real flops, everything else tallied as single real ops). In particular the
eigen-decomposition is costed as m^2*n + n^3 complex multiplies for an m x n
factorization and the covariance rebuild at 2*N_RIS^3 per subcarrier,
matching the accounting the complexity trends are compared against. The
ledger still charges the paper's N_t^3 factorization and 2*N_RIS^3 rebuild,
which the loop no longer runs (it takes an N_r x N_r Gram `eigh` and a Q-free
gradient), so `harness.complexity_table`, which prices the harness's run
records, keeps its counts. Only `bench/tracer.py` and tests pass a meter.
"""

from dataclasses import dataclass


@dataclass
class FlopMeter:
    """Monotone FLOP counters for one optimization run."""

    complex_mults: float = 0.0
    real_ops: float = 0.0

    @property
    def flop_total(self) -> float:
        return 6.0 * self.complex_mults + self.real_ops


def pga_run_cost(k: int, n_r: int, n_t: int, n_ris: int, gradient_passes: int, iterations: int) -> FlopMeter:
    """Cost of one optimizer run: initialization, gradient passes and waterfill solves.

    Initialization evaluates the rate and waterfills; every gradient pass adds
    a gradient, a phase update, a rate evaluation and a waterfilling. The run
    solves 1 + `iterations` waterfills, each 5 real ops per (subcarrier,
    stream) pair, with one stream per eigenmode, min(N_r, N_t): reciprocal,
    sort slot, prefix sum, candidate level and its test.
    """
    cascade = k * (n_r * n_ris + n_r * n_t * n_ris)  # phase-diagonal application plus cascade product
    log_det_arg = k * (n_t * n_r + 1.5 * n_t * n_r**2 + n_r**3)
    rate_eval = cascade + log_det_arg
    gradient = (cascade
                + k * (n_ris * n_t**2 + n_r * n_t * n_ris)  # H1 Q H3^H
                + k * (n_ris * n_t**2 + n_ris**2 * n_t + n_ris**2 + n_ris**2 * n_r)  # H1 Q H1^H Phi^H H2^H
                + log_det_arg
                + k * (n_r * n_ris + n_r**2 * n_ris + n_r**3))  # inverse-times-trace contraction
    phase_update = 2 * n_ris  # learning-rate scaling plus the unit-modulus projection
    waterfilling = k * (n_t**2 * n_r + 2 * n_t**3 + 2 * n_ris**3)  # Grams, factorizations, rebuild
    return FlopMeter(complex_mults=rate_eval + waterfilling
                     + gradient_passes * (gradient + phase_update + rate_eval + waterfilling),
                     real_ops=float(5 * k * min(n_r, n_t) * (1 + iterations)))
