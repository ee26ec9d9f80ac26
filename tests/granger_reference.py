"""Granger causality from plain numpy, independent of the pipeline.

lstsq_granger_log_ratios is the linear reference, which the acceptance
gate and the causality tests hold the linear-identity, zero-ridge
configuration to. kernel_granger_log_ratios is the kernel-path
reference, which tests/test_kernel_reference.py holds infer_graph to.
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


def _ridge_solve(A, B, ridge):
    """B's ridge regression on A, from its normal equations."""
    return np.linalg.solve(A.T @ A + ridge * np.eye(A.shape[1]), A.T @ B)


def kernel_granger_log_ratios(values, config):
    """Reference kernel-path log variance ratios, one dense fit per model.

    config is a PipelineConfig whose kernel is a KernelSpec. Each model
    normalizes its columns, builds the gram, centers it as J K J, keeps
    the top P eigenpairs of np.linalg.eigh by the pipeline's rule and
    takes U sqrt(lam) as coordinates; a ridge VAR on them and a ridge
    pre-image back to the normalized inputs give the residuals. Any
    rotation of the coordinates gives the same residuals, so eigenvector
    signs do not matter.
    """
    T, N = values.shape
    lag, spec, p_select = config.lag, config.kernel, config.p_select

    def residual_variance(columns, cap_rank):
        X = values[:, columns]
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        if spec.kind == "rbf":
            D = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=-1)
            bandwidth = spec.bandwidth or np.median(np.sqrt(D[np.triu_indices(T, 1)]))
            K = np.exp(-D / (2.0 * bandwidth**2))
        elif spec.kind == "linear":
            K = X @ X.T
        else:
            K = (X @ X.T + spec.offset) ** spec.degree
        J = np.eye(T) - 1.0 / T
        lam, U = np.linalg.eigh(J @ K @ J)
        lam, U = np.maximum(lam[::-1], 0.0), U[:, ::-1]
        rank = np.count_nonzero(lam > 1e-10 * lam[0])
        if isinstance(p_select, float):
            # the fewest leading values whose cumulative sum reaches p_select of the mass
            mass = np.cumsum(lam[:rank])
            P = np.count_nonzero(mass < p_select * mass[-1]) + 1
        else:
            P = min(p_select, rank) if cap_rank else p_select
        H = U[:, :P] * np.sqrt(lam[:P])
        design = np.hstack([H[lag - ell : T - ell] for ell in range(1, lag + 1)])
        fitted = design @ _ridge_solve(design, H[lag:], config.ridge_var)
        reconstruction = fitted @ _ridge_solve(H[lag:], X[lag:], config.ridge_preimage)
        return np.var(X[lag:] - reconstruction, axis=0)

    full = residual_variance(list(range(N)), cap_rank=False)
    raw = np.zeros((N, N))
    for i in range(N):
        rest = [k for k in range(N) if k != i]
        reduced = residual_variance(rest, cap_rank=True)
        for k, j in enumerate(rest):
            raw[i, j] = math.log(reduced[k] / full[j])
    return raw
