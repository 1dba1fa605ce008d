import numpy as np
import pytest

from periodsplat import raster, temporal
from periodsplat.errors import OutOfRange, ShapeMismatch

from conftest import central_difference, identity_camera, micro_scene


def test_encode_integer_one_hot():
    e = temporal.encode_time(2, 3)
    np.testing.assert_array_equal(e, [0.0, 0.0, 1.0])
    for T in (1, 2, 5):
        for t in range(T):
            w = temporal.encode_time(t, T)
            assert w[t] == 1.0 and w.sum() == 1.0 and np.count_nonzero(w) == 1


def test_encode_fractional():
    np.testing.assert_array_equal(temporal.encode_time(0.5, 3), [0.5, 0.5, 0.0])
    np.testing.assert_array_equal(temporal.encode_time(1.25, 4), [0.0, 0.75, 0.25, 0.0])


def test_encode_out_of_range():
    with pytest.raises(OutOfRange):
        temporal.encode_time(-0.1, 3)
    with pytest.raises(OutOfRange):
        temporal.encode_time(2.01, 3)


def test_encode_random_properties(rng):
    for _ in range(1000):
        T = int(rng.integers(2, 7))
        t = rng.uniform(0, T - 1)
        w = temporal.encode_time(t, T)
        assert abs(w.sum() - 1.0) <= 1e-12
        nz = np.nonzero(w)[0]
        assert 1 <= nz.size <= 2
        if nz.size == 2:
            assert nz[1] == nz[0] + 1


def test_encode_continuity(rng):
    for _ in range(200):
        T = int(rng.integers(2, 6))
        t = rng.uniform(0, T - 1.001)
        delta = rng.uniform(0, min(0.3, np.floor(t) + 1 - t - 1e-9))
        e1 = temporal.encode_time(t, T)
        e2 = temporal.encode_time(t + delta, T)
        assert np.abs(e2 - e1).sum() <= 2 * delta + 1e-12


def test_reduce_one_hot_selects_row_bitwise(rng):
    M = rng.normal(size=(4, 7))
    M[1, 3] = -0.0  # sign of zero must survive row selection
    e = temporal.encode_time(1, 4)
    out = temporal.reduce_periods(M, e)
    assert out.tobytes() == M[1].tobytes()


def test_reduce_zero_matrix():
    e = temporal.encode_time(0.3, 3)
    np.testing.assert_array_equal(temporal.reduce_periods(np.zeros((3, 5)), e), np.zeros(5))


def test_reduce_fractional_matches_direct_sum(rng):
    M = rng.normal(size=(2, 6))
    e = temporal.encode_time(0.5, 2)
    np.testing.assert_allclose(temporal.reduce_periods(M, e), 0.5 * M[0] + 0.5 * M[1],
                               atol=1e-15)
    for _ in range(20):
        T = int(rng.integers(2, 5))
        M = rng.normal(size=(T, 4))
        t = rng.uniform(0, T - 1)
        e = temporal.encode_time(t, T)
        expected = sum(e[tau] * M[tau] for tau in range(T))
        np.testing.assert_allclose(temporal.reduce_periods(M, e), expected, atol=1e-14)


def test_reduce_shape_mismatch(rng):
    with pytest.raises(ShapeMismatch):
        temporal.reduce_periods(rng.normal(size=(3, 4)), temporal.encode_time(1, 4))


# ---------------------------------------------------------------------------
# feature fusion, as raster.render and raster.render_backward run it

def fused(rng, t, use_thresholds=True):
    """micro_scene rendered at t: the scene, the render graph, and the base,
    var and global blocks of the decoder input."""
    scaffold, weights, global_g = micro_scene(rng)
    graph = raster.render(scaffold, identity_camera(), t, weights, global_g,
                          background=np.array([0.1, 0.15, 0.2]),
                          use_thresholds=use_thresholds)
    assert graph.visible.size == len(scaffold)
    h, d_b, d_v = graph.batch.u[:, :-3], scaffold.d_b, scaffold.d_v
    blocks = (h[:, :d_b], h[:, d_b:d_b + d_v], h[:, d_b + d_v:])
    return (scaffold, weights, global_g), graph, blocks


def test_fuse_zero_features(rng):
    scaffold, weights, global_g = micro_scene(rng)
    for arr in (scaffold.f_base, scaffold.f_var, global_g):
        arr[:] = 0.0
    for t in (0, 0.4, 1):
        h = raster.render(scaffold, identity_camera(), t, weights, global_g).batch.u[:, :-3]
        assert h.shape == (len(scaffold), scaffold.d_b + scaffold.d_v + global_g.shape[1])
        assert not h.any()


def test_fuse_one_hot_concatenates_rows_bitwise(rng):
    (scaffold, _, global_g), _, (base, local, glob) = fused(rng, 1)
    assert base.tobytes() == scaffold.f_base.tobytes()
    assert local.tobytes() == np.ascontiguousarray(scaffold.f_var[:, 1]).tobytes()
    assert glob.tobytes() == np.tile(global_g[1], (len(scaffold), 1)).tobytes()


def test_fuse_fractional_matches_hand_computation(rng):
    (scaffold, _, global_g), _, (base, local, glob) = fused(rng, 0.25)
    np.testing.assert_array_equal(base, scaffold.f_base)
    np.testing.assert_allclose(local, 0.75 * scaffold.f_var[:, 0] + 0.25 * scaffold.f_var[:, 1],
                               atol=1e-15)
    np.testing.assert_allclose(glob, np.tile(0.75 * global_g[0] + 0.25 * global_g[1],
                                             (len(scaffold), 1)), atol=1e-15)


def test_fuse_backward_one_hot_lands_in_row(rng):
    """At an integer timestamp the period gradients land in that period's rows only."""
    _, graph, _ = fused(rng, 1)
    grads = raster.render_backward(graph, rng.normal(size=graph.image.shape))
    assert not grads.f_var[:, 0].any() and grads.f_var[:, 1].any()
    assert not grads.g[0].any() and grads.g[1].any()


def fusion_gradient_error(rng, t, h=1e-5):
    """Worst |fd - analytic| / max(1, |fd|) over f_base, f_var and g, with
    central differences of <G, image> through render against the gradient
    from render_backward. The render runs with the thresholds off: a pixel's
    alpha crossing the skip threshold moves the image by about 1/255, and a
    perturbation of h can make one cross (a difference of -199 against 0.178
    was seen). The fusion and its adjoint are the same code either way."""
    (scaffold, weights, global_g), graph, _ = fused(rng, t, use_thresholds=False)
    G = rng.normal(size=graph.image.shape)
    grads = raster.render_backward(graph, G)

    def loss():
        return float(np.vdot(G, raster.render(scaffold, graph.camera, t, weights, global_g,
                                               graph.background, False).image))

    worst = 0.0
    for arr, grad in ((scaffold.f_base, grads.f_base), (scaffold.f_var, grads.f_var),
                      (global_g, grads.g)):
        for i, fd in central_difference(loss, arr, range(arr.size), h).items():
            worst = max(worst, abs(fd - grad.reshape(-1)[i]) / max(1.0, abs(fd)))
    return worst


def test_fuse_backward_central_difference(rng):
    """The fusion adjoint inside render_backward at fractional timestamps."""
    assert max(fusion_gradient_error(rng, t) for t in (0.3, 0.75)) <= 1e-6

