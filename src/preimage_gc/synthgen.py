"""Seeded synthetic benchmark systems with known causal graphs.

Five generators: a chaotic 2-node master-slave logistic map, 3-node
fan-out and fan-in motifs with tanh/square couplings, a 5-node stable
linear VAR, and its nonlinear twin. Every generator draws from one
independent substream per node (a SeedSequence spawn), so trajectories
are reproducible bit for bit given (generator_id, T, seed, params).

Each stream is drawn in time order, and no draw's value depends on T,
so a shorter panel is a prefix of a longer one: ``generate(g, T1, s)``
gives the first T1 rows of ``generate(g, T2, s)`` bit for bit for
T1 < T2, and the run diverges at the same step whenever it reaches it.
The bench sweep relies on the prefix property alone, to simulate each
(generator, seed) once at its largest T; it does not read the step at
which a run diverges, and fails every T of a trajectory that does.

The default parameters below are the definitions of record for these
benchmarks; tests and shipped configs rely on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TimeSeriesPanel, _freeze, _frozen_array, _is_integer
from .errors import InstabilityError

GENERATOR_IDS = ("logistic2", "fanout3", "fanin3", "linear5", "nonlinear5")

# Magnitudes at or above this abort generation as divergence.
MAGNITUDE_BOUND = 1e6

DEFAULT_BURN_IN = 1000

# The shortest trajectory generate returns, and so the shortest T a sweep takes.
MIN_T = 50

# Row = effect, column = cause; diagonal entries are self couplings.
# Chain/branch topology y1 -> y2 -> {y3, y4}, y4 -> y5, upper-triangular
# free so the spectral radius is the largest self term (0.6).
LINEAR5_COEFFICIENTS = _frozen_array(
    [
        [0.50, 0.00, 0.00, 0.00, 0.00],
        [0.50, 0.60, 0.00, 0.00, 0.00],
        [0.00, 0.45, 0.50, 0.00, 0.00],
        [0.00, -0.40, 0.00, 0.40, 0.00],
        [0.00, 0.00, 0.00, 0.50, 0.35],
    ]
)

# Cross couplings of nonlinear5 pass through tanh, except these
# (effect, cause) pairs, which use the square of the cause instead.
NONLINEAR5_SQUARED = frozenset({(3, 1)})

_DEFAULTS = {
    "logistic2": {"c": 0.4, "obs_noise": 0.01, "burn_in": DEFAULT_BURN_IN},
    "fanout3": {
        "a_hub": 0.5,
        "tanh_gain": 0.7,
        "tanh_self": 0.3,
        "square_gain": 0.7,
        "square_self": -0.3,
        "noise": 0.1,
        "burn_in": DEFAULT_BURN_IN,
    },
    "fanin3": {
        "a_root": 0.5,
        "tanh_gain": 0.5,
        "square_gain": 0.5,
        "sink_self": 0.2,
        "noise": 0.1,
        "burn_in": DEFAULT_BURN_IN,
    },
    "linear5": {
        "coefficients": LINEAR5_COEFFICIENTS,
        "noise": 0.1,
        "burn_in": DEFAULT_BURN_IN,
    },
    "nonlinear5": {
        "coefficients": LINEAR5_COEFFICIENTS,
        "noise": 0.1,
        "burn_in": DEFAULT_BURN_IN,
    },
}


@dataclass(frozen=True, eq=False)
class SyntheticDataset:
    """A generated panel together with the graph that produced it."""

    panel: TimeSeriesPanel
    ground_truth: np.ndarray
    generator_id: str
    seed: int
    params: dict

    def __post_init__(self):
        _freeze(self, "ground_truth", dtype=int)


def _resolve_params(generator_id, overrides):
    defaults = _DEFAULTS[generator_id]
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) for {generator_id}: {sorted(unknown)}; "
            f"valid keys are {sorted(defaults)}"
        )
    params = dict(defaults)
    params.update(overrides)
    burn_in = params["burn_in"]
    if not (_is_integer(burn_in) and burn_in >= 0):
        raise ValueError(f"burn_in must be a nonnegative integer, got {burn_in!r}")
    params["burn_in"] = int(burn_in)
    return params


def _node_streams(seed, n_nodes):
    children = np.random.SeedSequence(seed).spawn(n_nodes)
    return [np.random.Generator(np.random.PCG64(ss)) for ss in children]


def _diverged(step):
    return InstabilityError(f"trajectory diverged at step {step} (|y| >= {MAGNITUDE_BOUND:g})")


def _guard(state, step):
    # A NaN anywhere makes the max NaN, which never compares >= the bound.
    if np.max(np.abs(state)) >= MAGNITUDE_BOUND:
        raise _diverged(step)


# The stepped generators below run on Python floats: per-step numpy calls
# on a 3-5 element state cost more than the arithmetic. Two rules keep the
# floats bit-identical to numpy scalars: tanh stays np.tanh (math.tanh
# differs from numpy's SIMD tanh), and squares stay ``v ** 2`` (libm pow,
# as np.float64 ** 2 computes; v * v rounds differently). Checking every
# step keeps a finite state below the bound, so float ``**`` cannot
# overflow. A state whose largest magnitude reaches the bound goes to
# ``_guard``, which applies numpy's NaN semantics exactly.


def _gen_logistic2(T, seed, params):
    c = params["c"]
    burn = params["burn_in"]
    streams = _node_streams(seed, 2)
    lo, hi = 1e-12, 1.0 - 1e-12
    x = min(max(streams[0].uniform(), lo), hi)
    y = min(max(streams[1].uniform(), lo), hi)
    out = np.empty((T, 2))
    for t in range(burn + T):
        x_new = 4.0 * x * (1.0 - x)
        mix = c * x + (1.0 - c) * y
        y_new = 4.0 * mix * (1.0 - mix)
        x = min(max(x_new, lo), hi)
        y = min(max(y_new, lo), hi)
        if t >= burn:
            out[t - burn, 0] = x
            out[t - burn, 1] = y
    # chaos drives the dynamics; noise is observational only
    out[:, 0] += params["obs_noise"] * streams[0].normal(size=T)
    out[:, 1] += params["obs_noise"] * streams[1].normal(size=T)
    gt = np.array([[0, 1], [0, 0]])
    return out, gt


def _stream_noise(streams, scale, total):
    return np.column_stack(
        [stream.normal(0.0, scale, size=total) for stream in streams]
    )


def _gen_fanout3(T, seed, params):
    burn = params["burn_in"]
    noise = _stream_noise(_node_streams(seed, 3), params["noise"], burn + T)
    a_hub = params["a_hub"]
    tanh_gain, tanh_self = params["tanh_gain"], params["tanh_self"]
    square_gain, square_self = params["square_gain"], params["square_self"]
    y0 = y1 = y2 = 0.0
    rows = []
    for t, (n0, n1, n2) in enumerate(noise.tolist()):
        y0, y1, y2 = (
            a_hub * y0 + n0,
            tanh_gain * float(np.tanh(y0)) + tanh_self * y1 + n1,
            square_gain * y0 ** 2 + square_self * y2 + n2,
        )
        if max(abs(y0), abs(y1), abs(y2)) >= MAGNITUDE_BOUND:
            _guard(np.array([y0, y1, y2]), t)
        if t >= burn:
            rows.append((y0, y1, y2))
    gt = np.array([[0, 1, 1], [0, 0, 0], [0, 0, 0]])
    return np.array(rows), gt


def _gen_fanin3(T, seed, params):
    burn = params["burn_in"]
    noise = _stream_noise(_node_streams(seed, 3), params["noise"], burn + T)
    a_root = params["a_root"]
    tanh_gain, square_gain = params["tanh_gain"], params["square_gain"]
    sink_self = params["sink_self"]
    y0 = y1 = y2 = 0.0
    rows = []
    for t, (n0, n1, n2) in enumerate(noise.tolist()):
        y0, y1, y2 = (
            a_root * y0 + n0,
            a_root * y1 + n1,
            tanh_gain * float(np.tanh(y0))
            + square_gain * y1 ** 2
            + sink_self * y2
            + n2,
        )
        if max(abs(y0), abs(y1), abs(y2)) >= MAGNITUDE_BOUND:
            _guard(np.array([y0, y1, y2]), t)
        if t >= burn:
            rows.append((y0, y1, y2))
    gt = np.array([[0, 0, 1], [0, 0, 1], [0, 0, 0]])
    return np.array(rows), gt


def _coefficients_matrix(params):
    A = np.asarray(params["coefficients"], dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"coefficients must be square, got shape {A.shape}")
    return A


def _gt_from_coefficients(A):
    gt = (A != 0).astype(int)
    np.fill_diagonal(gt, 0)
    return gt.T  # A is effect-by-cause; ground truth is cause-by-effect


def _gen_linear5(T, seed, params):
    A = _coefficients_matrix(params)
    N = A.shape[0]
    burn = params["burn_in"]
    # row t of the noise becomes the state y_t in place
    traj = _stream_noise(_node_streams(seed, N), params["noise"], burn + T)
    y = np.zeros(N)
    # a divergent run overflows after the step that trips the check below
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(traj.shape[0]):
            traj[t] += A @ y
            y = traj[t]
        tripped = np.flatnonzero(np.max(np.abs(traj), axis=1) >= MAGNITUDE_BOUND)
    if tripped.size:
        raise _diverged(int(tripped[0]))
    return traj[burn:], _gt_from_coefficients(A)


_SELF, _SQUARE, _TANH = range(3)


def _gen_nonlinear5(T, seed, params):
    A = _coefficients_matrix(params)
    N = A.shape[0]
    burn = params["burn_in"]
    noise = _stream_noise(_node_streams(seed, N), params["noise"], burn + T)
    # nonzero (effect, cause, coef, kind) terms, accumulated effect-major
    terms = []
    for j in range(N):
        for i in range(N):
            a = float(A[j, i])
            if a == 0.0:
                continue
            if i == j:
                kind = _SELF
            elif (j, i) in NONLINEAR5_SQUARED:
                kind = _SQUARE
            else:
                kind = _TANH
            terms.append((j, i, a, kind))
    y = [0.0] * N
    rows = []
    for t, new in enumerate(noise.tolist()):
        for j, i, a, kind in terms:
            v = y[i]
            if kind == _TANH:
                v = float(np.tanh(v))
            elif kind == _SQUARE:
                v = v ** 2
            new[j] += a * v
        y = new
        if max(map(abs, y)) >= MAGNITUDE_BOUND:
            _guard(np.array(y), t)
        if t >= burn:
            rows.append(y)
    return np.array(rows), _gt_from_coefficients(A)


_BUILDERS = {
    "logistic2": _gen_logistic2,
    "fanout3": _gen_fanout3,
    "fanin3": _gen_fanin3,
    "linear5": _gen_linear5,
    "nonlinear5": _gen_nonlinear5,
}


def generate(generator_id, T, seed, params=None) -> SyntheticDataset:
    """Simulate a benchmark system and return the panel plus its graph.

    Runs burn_in + T steps and keeps the last T. ``params`` may override
    any default of the chosen generator (unknown keys are rejected).
    T and seed must be integers (a bool is refused); negative seeds are
    folded into the unsigned 64-bit range.
    """
    if generator_id not in _BUILDERS:
        raise ValueError(
            f"unknown generator {generator_id!r}; choose from {GENERATOR_IDS}"
        )
    for what, value in (("T", T), ("seed", seed)):
        if not _is_integer(value):
            raise ValueError(f"{what} must be an integer, got {value!r}")
    T = int(T)
    if T < MIN_T:
        raise ValueError(f"T must be >= {MIN_T}, got {T}")
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    resolved = _resolve_params(generator_id, dict(params or {}))
    values, gt = _BUILDERS[generator_id](T, seed, resolved)
    names = tuple(f"y{j + 1}" for j in range(values.shape[1]))
    return SyntheticDataset(
        panel=TimeSeriesPanel(values=values, node_names=names),
        ground_truth=gt,
        generator_id=generator_id,
        seed=seed,
        params=resolved,
    )
