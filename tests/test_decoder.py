from types import SimpleNamespace

import numpy as np
import pytest

from periodsplat import decoder as dec
from periodsplat.errors import MissingForwardState

from conftest import identity_camera
from oracles import two_layer_oracle


def zero_weights(in_dim, hidden, K):
    def head(out):
        return dec.MlpWeights(np.zeros((hidden, in_dim)), np.zeros(hidden),
                              np.zeros((out, hidden)), np.zeros(out))
    return dec.DecoderWeights(opacity=head(K), color=head(3 * K), covariance=head(7 * K))


def random_anchor(rng, K=4):
    return SimpleNamespace(
        position=rng.normal(size=3) * 0.3,
        offsets=rng.normal(size=(K, 3)),
        offset_scale=rng.uniform(0.1, 0.4, size=3),
        shape_scale=rng.uniform(0.1, 0.4, size=3),
    )


def decode_one(anchor, h, camera, weights):
    """decode_anchors over a batch of one anchor; returns that anchor's slots."""
    batch = dec.decode_anchors(
        anchor.position[None], anchor.offsets[None], anchor.offset_scale[None],
        anchor.shape_scale[None], h[None], camera, weights)
    return SimpleNamespace(**{key: value[0] for key, value in vars(batch).items()})


def test_zero_weights_all_inactive(rng):
    K = 4
    anchor = random_anchor(rng, K=K)
    cam = identity_camera()
    h = rng.normal(size=14)
    cluster = decode_one(anchor, h, cam, zero_weights(17, 8, K))
    np.testing.assert_array_equal(cluster.raw_opacity, np.zeros(K))
    assert not cluster.active.any()
    # sigmoid(0) color regardless of activity
    np.testing.assert_array_equal(cluster.colors, np.full((K, 3), 0.5))


def test_decode_matches_two_layer_oracle(rng):
    K, d_f = 3, 6
    anchor = random_anchor(rng, K=K)
    cam = identity_camera()
    h = rng.normal(size=14)
    weights = dec.init_decoder_weights(rng, 17, d_f, K, opacity_bias=0.2)
    cluster = decode_one(anchor, h, cam, weights)

    d = anchor.position - cam.center()
    u = np.concatenate([h, d / np.linalg.norm(d)])
    out_o = two_layer_oracle(*weights.opacity.arrays(), u)
    out_c = two_layer_oracle(*weights.color.arrays(), u)
    out_g = two_layer_oracle(*weights.covariance.arrays(), u)
    np.testing.assert_allclose(cluster.raw_opacity, np.tanh(out_o), atol=1e-12)
    np.testing.assert_allclose(cluster.colors, 1 / (1 + np.exp(-out_c)).reshape(K, 3),
                               atol=1e-12)
    cov = out_g.reshape(K, 7)
    for k in range(K):
        q = cov[k, :4]
        np.testing.assert_allclose(cluster.rotations[k], q / np.linalg.norm(q), atol=1e-12)
        np.testing.assert_allclose(cluster.scales[k],
                                   anchor.shape_scale * np.log1p(np.exp(cov[k, 4:])),
                                   rtol=1e-12)
    np.testing.assert_allclose(
        cluster.means, anchor.position + anchor.offset_scale * anchor.offsets, atol=1e-15)


def test_decode_activation_ranges(rng):
    for trial in range(10):
        K = 5
        anchor = random_anchor(rng, K=K)
        weights = dec.init_decoder_weights(rng, 17, 8, K, opacity_bias=0.0)
        cluster = decode_one(anchor, rng.normal(size=14) * 2, identity_camera(), weights)
        assert np.all(np.abs(cluster.raw_opacity) < 1.0)
        assert np.all((cluster.colors > 0) & (cluster.colors < 1))
        assert np.all(cluster.scales > 0)
        np.testing.assert_allclose(np.linalg.norm(cluster.rotations, axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(cluster.active, cluster.raw_opacity > 0)


def test_view_dependence_means_invariant(rng):
    anchor = random_anchor(rng)
    weights = dec.init_decoder_weights(rng, 17, 8, 4, opacity_bias=0.1)
    h = rng.normal(size=14)
    cam1 = identity_camera(z_offset=2.0)
    cam2 = identity_camera(z_offset=3.7)
    c1 = decode_one(anchor, h, cam1, weights)
    c2 = decode_one(anchor, h, cam2, weights)
    np.testing.assert_array_equal(c1.means, c2.means)
    assert np.abs(c1.colors - c2.colors).max() > 0 or np.abs(
        c1.raw_opacity - c2.raw_opacity).max() > 0


def _batched_setup(rng, V=3, K=4, d_h=14):
    positions = rng.normal(size=(V, 3)) * 0.3
    offsets = rng.normal(size=(V, K, 3))
    offset_scale = rng.uniform(0.1, 0.4, size=(V, 3))
    shape_scale = rng.uniform(0.1, 0.4, size=(V, 3))
    h = rng.normal(size=(V, d_h))
    weights = dec.init_decoder_weights(rng, d_h + 3, 8, K, opacity_bias=0.3)
    cam = identity_camera(z_offset=2.5)
    return positions, offsets, offset_scale, shape_scale, h, weights, cam


def test_backward_requires_state():
    with pytest.raises(MissingForwardState):
        dec.decode_backward(None, None, None, None, None, None, None)


def test_backward_all_inactive_zero(rng):
    V, K = 2, 3
    positions, offsets, osc, ssc, h, _, cam = _batched_setup(rng, V=V, K=K)
    weights = dec.init_decoder_weights(rng, 17, 8, K, opacity_bias=-3.0)  # all inactive
    batch = dec.decode_anchors(positions, offsets, osc, ssc, h, cam, weights)
    assert not batch.active.any()
    g = dec.decode_backward(batch, weights,
                            rng.normal(size=(V, K, 3)), rng.normal(size=(V, K, 4)),
                            rng.normal(size=(V, K, 3)), rng.normal(size=(V, K)),
                            rng.normal(size=(V, K, 3)))
    assert not g.h.any() and not g.offsets.any() and not g.offset_scale.any()
    for head in (g.opacity, g.color, g.covariance):
        assert not any(a.any() for a in head.arrays())


def test_backward_finite_difference(rng):
    V, K = 3, 4
    positions, offsets, osc, ssc, h, weights, cam = _batched_setup(rng, V=V, K=K)
    batch = dec.decode_anchors(positions, offsets, osc, ssc, h, cam, weights)
    act = batch.active

    gm = rng.normal(size=(V, K, 3)) * act[..., None]
    gq = rng.normal(size=(V, K, 4)) * act[..., None]
    gs = rng.normal(size=(V, K, 3)) * act[..., None]
    go = rng.normal(size=(V, K)) * act
    gc = rng.normal(size=(V, K, 3)) * act[..., None]
    g = dec.decode_backward(batch, weights, gm, gq, gs, go, gc)

    def loss():
        b = dec.decode_anchors(positions, offsets, osc, ssc, h, cam, weights)
        a = b.active
        return float((b.means * gm * a[..., None]).sum()
                     + (b.rotations * gq * a[..., None]).sum()
                     + (b.scales * gs * a[..., None]).sum()
                     + (b.raw_opacity * go * a).sum()
                     + (b.colors * gc * a[..., None]).sum())

    step = 1e-6
    targets = [(h, g.h), (offsets, g.offsets), (osc, g.offset_scale), (ssc, g.shape_scale),
               (weights.opacity.W1, g.opacity.W1), (weights.opacity.b2, g.opacity.b2),
               (weights.color.W2, g.color.W2), (weights.covariance.W1, g.covariance.W1),
               (weights.covariance.b2, g.covariance.b2)]
    for arr, grad in targets:
        flat, gflat = arr.reshape(-1), np.asarray(grad).reshape(-1)
        for i in rng.choice(flat.size, size=min(12, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + step
            fp = loss()
            flat[i] = orig - step
            fm = loss()
            flat[i] = orig
            fd = (fp - fm) / (2 * step)
            assert abs(fd - gflat[i]) <= 1e-4 * max(abs(fd), 1e-2)


def test_backward_inactive_slots_exact_zero(rng):
    """Gradients attributable to an inactive slot vanish even with nonzero
    incoming gradients on that slot."""
    V, K = 2, 4
    positions, offsets, osc, ssc, h, weights, cam = _batched_setup(rng, V=V, K=K)
    weights.opacity.b2[:] = np.array([0.5, -0.5, 0.4, -0.4]) * 3
    batch = dec.decode_anchors(positions, offsets, osc, ssc, h, cam, weights)
    assert not batch.active.all() and batch.active.any()
    gm = rng.normal(size=(V, K, 3))
    g = dec.decode_backward(batch, weights, gm, np.zeros((V, K, 4)),
                            np.zeros((V, K, 3)), np.zeros((V, K)), np.zeros((V, K, 3)))
    inactive = ~batch.active
    assert not g.offsets[inactive].any()
    # offset gradients for active slots: offset_scale * incoming
    active = batch.active
    np.testing.assert_allclose(g.offsets[active],
                               (osc[:, None, :] * gm)[active], atol=1e-15)


def test_quaternion_gradient_orthogonal(rng):
    """The backward through normalization projects out the radial component:
    the raw-quaternion gradient is orthogonal to the unit quaternion."""
    V, K = 3, 4
    positions, offsets, osc, ssc, h, weights, cam = _batched_setup(rng, V=V, K=K)
    batch = dec.decode_anchors(positions, offsets, osc, ssc, h, cam, weights)
    gq = rng.normal(size=(V, K, 4)) * batch.active[..., None]
    dec.decode_backward(batch, weights, np.zeros((V, K, 3)), gq,
                        np.zeros((V, K, 3)), np.zeros((V, K)), np.zeros((V, K, 3)))
    dot = (batch.rotations * gq).sum(axis=-1, keepdims=True)
    g_q_raw = (gq - batch.rotations * dot) / batch.q_norm[..., None]
    ortho = (g_q_raw * batch.rotations).sum(axis=-1)
    np.testing.assert_allclose(ortho[batch.active], 0.0, atol=1e-12)


def test_adjoint_dot_product(rng):
    """<g, J v> == <J^T g, v> through the whole decoder to 1e-10."""
    V, K = 3, 4
    positions, offsets, osc, ssc, h, weights, cam = _batched_setup(rng, V=V, K=K)
    batch = dec.decode_anchors(positions, offsets, osc, ssc, h, cam, weights)
    act = batch.active

    for _ in range(10):
        gm = rng.normal(size=(V, K, 3)) * act[..., None]
        gq = rng.normal(size=(V, K, 4)) * act[..., None]
        gs = rng.normal(size=(V, K, 3)) * act[..., None]
        go = rng.normal(size=(V, K)) * act
        gc = rng.normal(size=(V, K, 3)) * act[..., None]
        g = dec.decode_backward(batch, weights, gm, gq, gs, go, gc)

        vh = rng.normal(size=h.shape)
        voff = rng.normal(size=offsets.shape)
        vosc = rng.normal(size=osc.shape)
        vssc = rng.normal(size=ssc.shape)
        vW = {head: [rng.normal(size=a.shape) for a in getattr(weights, head).arrays()]
              for head in ("opacity", "color", "covariance")}

        eps = 1e-7
        def apply(sign):
            h2 = h + sign * eps * vh
            off2 = offsets + sign * eps * voff
            osc2 = osc + sign * eps * vosc
            ssc2 = ssc + sign * eps * vssc
            w2 = dec.DecoderWeights(*[
                dec.MlpWeights(*[a + sign * eps * d for a, d in
                                 zip(getattr(weights, head).arrays(), vW[head])])
                for head in ("opacity", "color", "covariance")])
            b = dec.decode_anchors(positions, off2, osc2, ssc2, h2, cam, w2)
            return float((b.means * gm * act[..., None]).sum()
                         + (b.rotations * gq * act[..., None]).sum()
                         + (b.scales * gs * act[..., None]).sum()
                         + (b.raw_opacity * go * act).sum()
                         + (b.colors * gc * act[..., None]).sum())

        jv = (apply(1.0) - apply(-1.0)) / (2 * eps)
        jt_g = float((g.h * vh).sum() + (g.offsets * voff).sum()
                     + (g.offset_scale * vosc).sum() + (g.shape_scale * vssc).sum())
        for head in ("opacity", "color", "covariance"):
            jt_g += sum(float((a * d).sum()) for a, d in
                        zip(getattr(g, head).arrays(), vW[head]))
        assert abs(jv - jt_g) <= 1e-6 * max(1.0, abs(jv))
