"""Period encodings and the reduction of period rows.

A scene observed at T discrete periods carries three feature components:
a per-anchor period-invariant base vector, a per-anchor T x d_v matrix of
period rows, and a scene-wide T x d_g matrix. A timestamp t selects (integer
t) or blends (fractional t) period rows through the encoding built here;
raster.render concatenates the three reduced components into the decoder
input, and raster.render_backward holds the adjoint of that fusion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, ShapeMismatch


@dataclass
class TimeEncoding:
    """Period weight vector for one timestamp.

    weights sums to 1, has at most two nonzero entries, and those entries
    are adjacent period indices. At integer t it is exactly one-hot.
    """

    weights: np.ndarray
    t: float


def encode_time(t, T):
    """Build the T-dimensional period encoding for timestamp t.

    Integer timestamps yield exact one-hot vectors; fractional timestamps
    interpolate linearly between the two adjacent period slots.
    """
    t = float(t)
    if not (0.0 <= t <= T - 1):
        raise OutOfRange(f"timestamp {t} outside [0, {T - 1}]")
    weights = np.zeros(T, dtype=np.float64)
    lo = int(np.floor(t))
    hi = int(np.ceil(t))
    w = t - lo
    weights[lo] = 1.0 - w
    weights[hi] += w
    return TimeEncoding(weights=weights, t=t)


def reduce_periods(M, e):
    """Weighted sum of period rows: sum_tau e.weights[tau] * M[tau, :].

    Exactly one-hot encodings return the selected row bitwise (a copy).
    """
    M = np.asarray(M)
    if M.shape[0] != e.weights.shape[0]:
        raise ShapeMismatch(f"matrix has {M.shape[0]} period rows, encoding has {e.weights.shape[0]}")
    nz = np.nonzero(e.weights)[0]
    if nz.size == 1 and e.weights[nz[0]] == 1.0:
        return M[nz[0]].copy()
    return e.weights @ M


def reduce_periods_many(M, e):
    """reduce_periods over a batch: M (N, T, d) -> (N, d)."""
    if M.shape[1] != e.weights.shape[0]:
        raise ShapeMismatch(f"matrix has {M.shape[1]} period rows, encoding has {e.weights.shape[0]}")
    nz = np.nonzero(e.weights)[0]
    if nz.size == 1 and e.weights[nz[0]] == 1.0:
        return M[:, nz[0], :].copy()
    return np.einsum("t,ntd->nd", e.weights, M)
