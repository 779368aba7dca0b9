"""FLOP accounting for the joint phase/power optimization loop.

Counting is explicit at the optimizer's call sites and mirrors an analytical
per-step accounting of the named matrix products (complex multiply = 6 real
flops, everything else tallied as single real ops), not hardware-measured
arithmetic. In particular the eigen-decomposition is costed as m^2*n + n^3
complex multiplies for an m x n factorization and the covariance rebuild at
2*N_RIS^3 per subcarrier, matching the accounting the complexity trends are
compared against.
"""

from dataclasses import dataclass


@dataclass
class FlopMeter:
    """Monotone counters for one optimization run."""

    complex_mults: float = 0.0
    real_ops: float = 0.0
    iterations: int = 0

    @property
    def flop_total(self) -> float:
        return 6.0 * self.complex_mults + self.real_ops

    def record_mults(self, n: float) -> None:
        self.complex_mults += n


def record_equivalent_channel(meter: FlopMeter, k: int, n_r: int, n_t: int, n_ris: int) -> None:
    """Phase-diagonal application plus the cascade product, per subcarrier."""
    meter.record_mults(k * (n_r * n_ris + n_r * n_t * n_ris))


def record_gradient(meter: FlopMeter, k: int, n_r: int, n_t: int, n_ris: int) -> None:
    """Gradient pass: equivalent channel, Y/Z products, log-det argument, trace."""
    record_equivalent_channel(meter, k, n_r, n_t, n_ris)
    meter.record_mults(k * (n_ris * n_t**2 + n_r * n_t * n_ris))  # H1 Q H3^H
    meter.record_mults(k * (n_ris * n_t**2 + n_ris**2 * n_t + n_ris**2 + n_ris**2 * n_r))  # H1 Q H1^H Phi^H H2^H
    meter.record_mults(k * (n_t * n_r + 1.5 * n_t * n_r**2 + n_r**3))  # log-det argument
    meter.record_mults(k * (n_r * n_ris + n_r**2 * n_ris + n_r**3))  # inverse-times-trace contraction


def record_phase_update(meter: FlopMeter, n_ris: int) -> None:
    """Learning-rate scaling of the gradient plus the unit-modulus projection."""
    meter.record_mults(2 * n_ris)


def record_rate_eval(meter: FlopMeter, k: int, n_r: int, n_t: int, n_ris: int) -> None:
    """Objective evaluation at a candidate: equivalent channel plus log-det argument."""
    record_equivalent_channel(meter, k, n_r, n_t, n_ris)
    meter.record_mults(k * (n_t * n_r + 1.5 * n_t * n_r**2 + n_r**3))


def record_waterfilling(meter: FlopMeter, k: int, n_r: int, n_t: int, n_ris: int) -> None:
    """Gram matrices, their eigen-factorizations and the covariance rebuild."""
    meter.record_mults(k * (n_t**2 * n_r + 2 * n_t**3 + 2 * n_ris**3))
