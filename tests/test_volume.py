"""Volume container, log-ratio normalization, and crop-position tests."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oximap.physics import normalize_signal
from oximap.volume import (
    DEFAULT_VOXEL_SIZE_MM,
    Volume4D,
    normalize_volume,
    valid_crop_corners,
)


def grid_volume(h=4, w=5, d=3, n_t=11, rng=None, mask=None):
    rng = rng or np.random.default_rng(0)
    data = rng.uniform(0.5, 1.5, size=(h, w, d, n_t))
    return Volume4D(data, mask)


class TestVolume4D:
    def test_default_mask_is_all_true(self):
        vol = grid_volume()
        assert vol.mask.all()
        assert vol.n_masked == 4 * 5 * 3
        assert vol.grid_shape == (4, 5, 3)
        assert vol.n_t == 11
        assert vol.voxel_size_mm == DEFAULT_VOXEL_SIZE_MM

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="4-D"):
            Volume4D(np.zeros((4, 5, 3)))

    def test_rejects_mask_shape_mismatch(self):
        with pytest.raises(ValueError, match="mask shape"):
            Volume4D(np.zeros((4, 5, 3, 2)), np.ones((4, 5, 2), dtype=bool))

    def test_rejects_nonfinite_inside_mask(self):
        data = np.ones((2, 2, 1, 3))
        data[0, 0, 0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Volume4D(data)

    def test_nonfinite_outside_mask_allowed(self):
        data = np.ones((2, 2, 1, 3))
        data[0, 0, 0, 1] = np.inf
        mask = np.ones((2, 2, 1), dtype=bool)
        mask[0, 0, 0] = False
        vol = Volume4D(data, mask)
        assert vol.n_masked == 3

    def test_rejects_bad_voxel_size(self):
        with pytest.raises(ValueError, match="voxel_size_mm"):
            Volume4D(np.ones((2, 2, 1, 3)), voxel_size_mm=(2.3, 0.0, 7.5))
        with pytest.raises(ValueError, match="voxel_size_mm"):
            Volume4D(np.ones((2, 2, 1, 3)), voxel_size_mm=(2.3, 2.3))


class TestNormalizeVolume:
    def test_log_ratio_values(self, proto):
        rng = np.random.default_rng(3)
        vol = grid_volume(rng=rng)
        out, dropped = normalize_volume(vol, proto)
        assert dropped == 0
        # the one spin-echo log-ratio, the same function synthetic rows pass through
        assert np.array_equal(out.data, normalize_signal(vol.data, proto))
        # spin-echo channel is exactly zero after normalization
        assert np.all(out.data[..., proto.se_index] == 0.0)

    def test_scale_invariance(self, proto):
        vol = grid_volume()
        scaled = Volume4D(vol.data * 137.0, vol.mask, vol.voxel_size_mm)
        a, _ = normalize_volume(vol, proto)
        b, _ = normalize_volume(scaled, proto)
        assert_allclose(a.data, b.data, rtol=0, atol=1e-12)

    def test_drops_nonpositive_rows(self, proto):
        vol = grid_volume()
        vol.data[1, 2, 0, 4] = 0.0
        vol.data[3, 0, 2, 0] = -0.1
        out, dropped = normalize_volume(vol, proto)
        assert dropped == 2
        assert not out.mask[1, 2, 0] and not out.mask[3, 0, 2]
        assert out.n_masked == vol.n_masked - 2
        # dropped voxels are zero-filled, not NaN, so the container stays valid
        assert np.all(out.data[1, 2, 0] == 0.0)

    def test_rejects_protocol_mismatch(self, proto):
        vol = grid_volume(n_t=5)
        with pytest.raises(ValueError, match="tau samples"):
            normalize_volume(vol, proto)


class TestCrops:
    def test_valid_corners_match_brute_force(self):
        rng = np.random.default_rng(11)
        mask = rng.random((7, 6, 2)) < 0.2
        data = np.ones((7, 6, 2, 3))
        vol = Volume4D(data, mask)
        size = 3
        got = {tuple(c) for c in valid_crop_corners(vol, size)}
        want = {
            (x0, y0)
            for x0 in range(7 - size + 1)
            for y0 in range(6 - size + 1)
            if mask[x0 : x0 + size, y0 : y0 + size].any()
        }
        assert got == want

    def test_valid_corners_size_error(self):
        vol = grid_volume(h=4, w=5)
        with pytest.raises(ValueError, match="crop size"):
            valid_crop_corners(vol, 6)

