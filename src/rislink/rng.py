"""Counter-based random substreams for order-independent Monte Carlo draws.

Every random draw site in the simulator owns a substream keyed by a tuple of
integers (seed, scenario, trial, site, ...). Substreams built from the same
key are bit-identical, and distinct keys are statistically independent, so
trials can run in any order or in parallel without changing results.
"""

import numpy as np

from .config import is_integer

# Draw-site tags used in substream keys.
SITE_BLOCKAGE = 0
SITE_LINK = 1
SITE_PHASES = 2


def substream(*key: int) -> np.random.Generator:
    """Return an independent Philox generator for an integer key tuple.

    A key entry that is not an integer, or is a bool, raises ValueError
    naming it, since truncating it would alias another key's stream.
    """
    if not key:
        raise ValueError("substream key must contain at least one integer")
    for k in key:
        if not is_integer(k):
            raise ValueError(f"substream key entries must be integers, got {k!r} in {key!r}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(tuple(int(k) for k in key))))
