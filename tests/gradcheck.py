"""Central-difference gradient checking shared by the test modules.

Comparison is per parameter block at the vector level: coordinate-wise
relative errors explode on near-zero entries where finite differences are
pure cancellation noise, while the block norm ratio stays meaningful.
"""

from __future__ import annotations

import numpy as np

STEP = 1e-5


def numeric_gradients(loss_fn, theta: np.ndarray, step: float = STEP) -> np.ndarray:
    """Coordinate central differences of ``loss_fn(theta) -> float`` over one vector."""
    work = np.array(theta, dtype=np.float64)
    grad = np.empty_like(work)
    for i in range(work.size):
        orig = work[i]
        work[i] = orig + step
        lp = loss_fn(work)
        work[i] = orig - step
        lm = loss_fn(work)
        work[i] = orig
        grad[i] = (lp - lm) / (2 * step)
    return grad


def max_block_relative_error(model, analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst relative error over the named blocks of ``model``'s parameter layout."""
    numeric_blocks = model.blocks(numeric)
    worst = 0.0
    for name, a in model.blocks(analytic).items():
        a, n = a.ravel(), numeric_blocks[name].ravel()
        denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(n)), 1e-12)
        worst = max(worst, float(np.linalg.norm(a - n)) / denom)
    return worst
