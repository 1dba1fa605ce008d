"""Period encodings and the reduction of period rows.

A scene observed at T discrete periods carries three feature components:
a per-anchor period-invariant base vector, a per-anchor T x d_v matrix of
period rows, and a scene-wide T x d_g matrix. A timestamp t selects (integer
t) or blends (fractional t) period rows through the encoding built here;
raster.render concatenates the three reduced components into the decoder
input, and raster.render_backward holds the adjoint of that fusion.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfRange, ShapeMismatch


def encode_time(t, T):
    """The (T,) period weight vector of timestamp t.

    It sums to 1 and has at most two nonzero entries, at adjacent period
    indices: integer timestamps yield exact one-hot vectors, fractional ones
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
    return weights


def reduce_periods(M, e):
    """reduce_periods_many of one (T, d) matrix: (d,)."""
    return reduce_periods_many(np.asarray(M)[None], e)[0]


def reduce_periods_many(M, e):
    """Weighted sums of period rows: M (N, T, d) -> (N, d), each row
    sum_tau e[tau] * M[n, tau, :].

    Exactly one-hot encodings return the selected rows bitwise (a copy).
    """
    if M.shape[1] != e.shape[0]:
        raise ShapeMismatch(f"matrix has {M.shape[1]} period rows, encoding has {e.shape[0]}")
    nz = np.nonzero(e)[0]
    if nz.size == 1 and e[nz[0]] == 1.0:
        return M[:, nz[0], :].copy()
    return np.einsum("t,ntd->nd", e, M)
