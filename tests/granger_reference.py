"""Linear Granger causality from plain numpy least squares.

An implementation independent of the pipeline, which the acceptance
gate and the causality tests hold the linear-identity, zero-ridge
configuration to.
"""

import math

import numpy as np


def lstsq_granger_log_ratios(values, lag):
    """Reference linear Granger log variance ratios from numpy least squares.

    Interceptless VAR(lag) per target node on the mean-centered panel
    (the pipeline's unit-variance scaling cannot change a variance
    ratio), once with every node's past and once without node i's.
    """
    Y = values - values.mean(axis=0)
    T, N = Y.shape
    past = np.stack([Y[lag - ell : T - ell] for ell in range(1, lag + 1)], axis=1)
    targets = Y[lag:]

    def residual_variance(j, causes):
        design = past[:, :, causes].reshape(len(targets), -1)
        coef, *_ = np.linalg.lstsq(design, targets[:, j], rcond=None)
        return np.var(targets[:, j] - design @ coef)

    raw = np.zeros((N, N))
    for i in range(N):
        rest = [k for k in range(N) if k != i]
        for j in rest:
            raw[i, j] = math.log(residual_variance(j, rest) / residual_variance(j, list(range(N))))
    return raw
