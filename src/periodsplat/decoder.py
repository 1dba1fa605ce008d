"""Three small MLPs decoding fused features into per-anchor Gaussian clusters.

Each visible anchor contributes one decoder input: its fused feature vector
concatenated with the normalized camera-to-anchor direction. Three two-layer
heads (shared across anchors) map that input to K raw opacities (tanh), K
RGB colors (sigmoid), and K x 7 raw geometry values (no output activation:
4 quaternion components normalized afterwards, 3 scale logits passed through
softplus and multiplied by the anchor's shape scale). Slots whose raw
opacity is non-positive are inactive: they are excluded from compositing and
every gradient attributable to them is exactly zero.

The backward pass is written out by hand and is the exact adjoint of the
forward pass; see decode_backward.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import MissingForwardState

QUAT_NORM_FLOOR = 1e-8
IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])


@dataclass
class MlpWeights:
    """One two-layer head: out = W2 @ relu(W1 @ u + b1) + b2."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    def arrays(self):
        return [self.W1, self.b1, self.W2, self.b2]


@dataclass
class DecoderWeights:
    opacity: MlpWeights
    color: MlpWeights
    covariance: MlpWeights

    @property
    def K(self):
        return self.opacity.W2.shape[0]


def _xavier(rng, shape):
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def init_decoder_weights(rng, in_dim, hidden, K, opacity_bias=0.1):
    """Seeded Xavier-uniform weights, zero biases.

    The opacity head's output bias starts slightly positive so that
    zero-featured anchors decode to weakly active slots and receive
    gradients from the first iteration.
    """
    def head(out_dim, out_bias=0.0):
        return MlpWeights(
            W1=_xavier(rng, (hidden, in_dim)),
            b1=np.zeros(hidden),
            W2=_xavier(rng, (out_dim, hidden)),
            b2=np.full(out_dim, out_bias, dtype=np.float64),
        )

    return DecoderWeights(
        opacity=head(K, opacity_bias),
        color=head(3 * K),
        covariance=head(7 * K),
    )


def _softplus(x):
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _head_forward(w, u):
    z1 = u @ w.W1.T + w.b1
    a1 = np.maximum(z1, 0.0)
    out = a1 @ w.W2.T + w.b2
    return z1, a1, out


def decode_anchors(positions, offsets, offset_scale, shape_scale, h, camera, weights):
    """Decode a batch of anchors for one camera.

    positions (V, 3), offsets (V, K, 3), offset_scale / shape_scale (V, 3),
    h (V, d_h) fused features. Returns one namespace: the decoded
    attributes and the intermediates that decode_backward reads.
    """
    V = positions.shape[0]
    K = weights.K
    p = camera.center()
    d = positions - p
    norms = np.linalg.norm(d, axis=1, keepdims=True)
    dirs = np.divide(d, norms, out=np.zeros_like(d), where=norms > 0)
    u = np.concatenate([h, dirs], axis=1)

    z1_o, a1_o, out_o = _head_forward(weights.opacity, u)
    z1_c, a1_c, out_c = _head_forward(weights.color, u)
    z1_g, a1_g, out_g = _head_forward(weights.covariance, u)

    raw_opacity = np.tanh(out_o)  # (V, K)
    colors = _sigmoid(out_c).reshape(V, K, 3)

    cov_out = out_g.reshape(V, K, 7)
    q_raw = cov_out[..., :4]
    logits = cov_out[..., 4:]
    q_norm = np.linalg.norm(q_raw, axis=-1)
    fallback = q_norm < QUAT_NORM_FLOOR
    safe_norm = np.where(fallback, 1.0, q_norm)
    q_unit = q_raw / safe_norm[..., None]
    q_unit = np.where(fallback[..., None], IDENTITY_QUAT, q_unit)

    sp = _softplus(logits)
    scales = shape_scale[:, None, :] * sp
    means = positions[:, None, :] + offset_scale[:, None, :] * offsets
    active = raw_opacity > 0.0

    return SimpleNamespace(
        means=means, rotations=q_unit, scales=scales,
        raw_opacity=raw_opacity, colors=colors, active=active,
        u=u, z1_o=z1_o, a1_o=a1_o, z1_c=z1_c, a1_c=a1_c, z1_g=z1_g, a1_g=a1_g,
        q_norm=safe_norm, fallback=fallback, logits=logits, sp=sp,
        offsets=offsets, offset_scale=offset_scale, shape_scale=shape_scale,
    )


def _head_backward(w, u, z1, a1, g_out):
    g_W2 = g_out.T @ a1
    g_b2 = g_out.sum(axis=0)
    g_a1 = g_out @ w.W2
    g_z1 = np.where(z1 > 0, g_a1, 0.0)
    g_W1 = g_z1.T @ u
    g_b1 = g_z1.sum(axis=0)
    g_u = g_z1 @ w.W1
    return MlpWeights(g_W1, g_b1, g_W2, g_b2), g_u


def decode_backward(state, weights, g_means, g_quats, g_scales, g_opacity, g_colors):
    """Exact adjoint of decode_anchors.

    Incoming gradients are with respect to the decoded attributes (unit
    quaternions, world scales, raw opacities, colors, world means), laid out
    (V, K, ...). Gradients attributable to inactive slots are forced to
    exactly zero. Returns a namespace with gradients on the fused features,
    the three heads' weights, and the per-anchor offsets and scales; the
    direction input (the last 3 columns of u) is discarded.
    """
    if state is None:
        raise MissingForwardState("decode_backward needs the forward state")
    act = state.active
    actf = act[..., None]
    V, K = act.shape

    g_means = np.where(actf, g_means, 0.0)
    g_offsets = state.offset_scale[:, None, :] * g_means
    g_offset_scale = (state.offsets * g_means).sum(axis=1)

    g_scales = np.where(actf, g_scales, 0.0)
    g_shape_scale = (state.sp * g_scales).sum(axis=1)
    g_logits = state.shape_scale[:, None, :] * _sigmoid(state.logits) * g_scales

    g_quats = np.where(actf, g_quats, 0.0)
    # q = q_raw / ||q_raw||: the Jacobian projects out the radial component.
    dot = (state.rotations * g_quats).sum(axis=-1, keepdims=True)
    g_q_raw = (g_quats - state.rotations * dot) / state.q_norm[..., None]
    g_q_raw = np.where(state.fallback[..., None], 0.0, g_q_raw)

    g_out_o = np.where(act, g_opacity * (1.0 - state.raw_opacity ** 2), 0.0)
    g_colors = np.where(actf, g_colors, 0.0)
    sig = state.colors
    # Widths are explicit: reshape cannot infer -1 when V = 0.
    g_out_c = (g_colors * sig * (1.0 - sig)).reshape(V, 3 * K)
    g_out_g = np.concatenate([g_q_raw, g_logits], axis=-1).reshape(V, 7 * K)

    w_o, g_u_o = _head_backward(weights.opacity, state.u, state.z1_o, state.a1_o, g_out_o)
    w_c, g_u_c = _head_backward(weights.color, state.u, state.z1_c, state.a1_c, g_out_c)
    w_g, g_u_g = _head_backward(weights.covariance, state.u, state.z1_g, state.a1_g, g_out_g)

    g_u = g_u_o + g_u_c + g_u_g
    return SimpleNamespace(
        h=g_u[:, :-3],
        opacity=w_o, color=w_c, covariance=w_g,
        offsets=g_offsets, offset_scale=g_offset_scale, shape_scale=g_shape_scale,
    )
