"""Reader/writer tests for the single-file NIfTI-1 subset: byte-level header
checks, scale-factor application, and typed error codes."""

import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oximap.nifti import (
    HEADER_SIZE,
    MAGIC,
    VOX_OFFSET,
    NiftiFormatError,
    read_description,
    read_nifti,
    write_nifti,
)
from oximap.volume import Volume4D


def f32_grid(rng, shape):
    """Random values already rounded to float32 so a write/read trip is exact."""
    return rng.normal(0.0, 1.0, shape).astype(np.float32).astype(np.float64)


def make_raw_nifti(data_i2, slope, inter, ndim=3):
    """Hand-assemble a little-endian int16 NIfTI-1 byte string."""
    data_i2 = np.asarray(data_i2, dtype="<i2")
    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    dim = np.ones(8, dtype="<i2")
    dim[0] = ndim
    dim[1 : 1 + data_i2.ndim] = data_i2.shape
    struct.pack_into("<8h", hdr, 40, *dim)
    struct.pack_into("<h", hdr, 70, 4)  # int16
    struct.pack_into("<h", hdr, 72, 16)
    pixdim = np.zeros(8, dtype="<f4")
    pixdim[1:4] = (2.0, 2.0, 2.0)
    struct.pack_into("<8f", hdr, 76, *pixdim)
    struct.pack_into("<f", hdr, 108, float(VOX_OFFSET))
    struct.pack_into("<f", hdr, 112, slope)
    struct.pack_into("<f", hdr, 116, inter)
    hdr[344:348] = MAGIC
    return bytes(hdr) + b"\x00\x00\x00\x00" + data_i2.tobytes(order="F")


class TestRoundTrip:
    def test_4d_volume_round_trip(self, tmp_path, rng):
        data = f32_grid(rng, (5, 4, 3, 11))
        vol = Volume4D(data, voxel_size_mm=(2.3, 2.3, 7.5))
        path = tmp_path / "vol.nii"
        write_nifti(vol, path)
        back = read_nifti(path)
        assert isinstance(back, Volume4D)
        assert back.data.shape == (5, 4, 3, 11)
        assert np.array_equal(back.data, data)
        assert back.mask.all()
        # pixdim is stored as float32: sizes come back at that precision
        assert back.voxel_size_mm == tuple(float(np.float32(v)) for v in (2.3, 2.3, 7.5))

    def test_3d_map_round_trip_returns_array(self, tmp_path, rng):
        data = f32_grid(rng, (6, 5, 4))
        path = tmp_path / "map.nii"
        write_nifti(data, path, voxel_size_mm=(1.5, 1.5, 2.0))
        back = read_nifti(path)
        assert isinstance(back, np.ndarray) and not isinstance(back, Volume4D)
        assert np.array_equal(back, data)

    def test_acquisition_scale_volume(self, tmp_path):
        data = np.zeros((96, 96, 8, 11))
        path = tmp_path / "big.nii"
        write_nifti(data, path)
        raw = path.read_bytes()
        dim = struct.unpack_from("<8h", raw, 40)
        assert dim[:5] == (4, 96, 96, 8, 11)
        assert len(raw) == VOX_OFFSET + 96 * 96 * 8 * 11 * 4
        assert read_nifti(path).data.shape == (96, 96, 8, 11)

    def test_nan_voxels_become_unmasked(self, tmp_path, rng):
        data = f32_grid(rng, (3, 3, 1, 4))
        mask = np.ones((3, 3, 1), bool)
        mask[0, 0, 0] = False
        data[0, 0, 0, :] = np.nan
        write_nifti(Volume4D(data, mask), tmp_path / "m.nii")
        back = read_nifti(tmp_path / "m.nii")
        assert np.array_equal(back.mask, mask)
        assert np.all(back.data[0, 0, 0] == 0.0)
        assert np.array_equal(back.data[mask], data[mask])

    def test_3d_nan_preserved(self, tmp_path):
        data = np.full((2, 2, 1), 0.5)
        data[1, 1, 0] = np.nan
        write_nifti(data, tmp_path / "n.nii")
        back = read_nifti(tmp_path / "n.nii")
        assert np.isnan(back[1, 1, 0])
        assert back[0, 0, 0] == 0.5

    def test_x_is_fastest_on_disk(self, tmp_path):
        data = np.arange(24, dtype=np.float64).reshape(4, 3, 2)
        path = tmp_path / "f.nii"
        write_nifti(data, path)
        body = np.frombuffer(path.read_bytes()[VOX_OFFSET:], dtype="<f4")
        assert np.array_equal(body, data.ravel(order="F").astype(np.float32))

    def test_description_written(self, tmp_path):
        write_nifti(np.zeros((2, 2, 2)), tmp_path / "d.nii", description="oef map")
        raw = (tmp_path / "d.nii").read_bytes()
        assert raw[148:155] == b"oef map"
        assert read_description(tmp_path / "d.nii") == "oef map"

    def test_write_rejects_other_ranks(self, tmp_path):
        with pytest.raises(ValueError, match="3-D or 4-D"):
            write_nifti(np.zeros((4, 4)), tmp_path / "x.nii")


class TestScaleFactors:
    def test_slope_and_intercept_applied(self, tmp_path):
        raw = make_raw_nifti(np.full((2, 2, 2), 5), slope=2.0, inter=1.0)
        path = tmp_path / "s.nii"
        path.write_bytes(raw)
        back = read_nifti(path)
        assert np.all(back == 11.0)
        assert back.dtype == np.float64

    def test_zero_slope_means_unscaled(self, tmp_path):
        raw = make_raw_nifti(np.full((2, 2, 2), 7), slope=0.0, inter=0.0)
        path = tmp_path / "z.nii"
        path.write_bytes(raw)
        assert np.all(read_nifti(path) == 7.0)

    def test_int16_fortran_order(self, tmp_path):
        vals = np.arange(8, dtype="<i2").reshape(2, 2, 2, order="F")
        path = tmp_path / "o.nii"
        path.write_bytes(make_raw_nifti(vals, slope=1.0, inter=0.0))
        assert np.array_equal(read_nifti(path), vals)


class TestErrors:
    def good_path(self, tmp_path):
        path = tmp_path / "g.nii"
        write_nifti(np.zeros((3, 3, 3)), path)
        return path

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.nii"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(NiftiFormatError) as exc:
            read_nifti(path)
        assert exc.value.code == "truncated"

    def test_bad_magic(self, tmp_path):
        path = self.good_path(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[344:348] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiFormatError) as exc:
            read_nifti(path)
        assert exc.value.code == "bad-magic"

    def test_two_file_magic_rejected(self, tmp_path):
        path = self.good_path(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[344:348] = b"ni1\x00"
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiFormatError, match="two-file") as exc:
            read_nifti(path)
        assert exc.value.code == "bad-magic"

    def test_unsupported_datatype(self, tmp_path):
        path = self.good_path(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<h", raw, 70, 8)  # int32: unsupported
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiFormatError, match="datatype code 8") as exc:
            read_nifti(path)
        assert exc.value.code == "bad-datatype"

    @pytest.mark.parametrize("ndim", [1, 2, 5])
    def test_unsupported_rank(self, tmp_path, ndim):
        path = self.good_path(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<h", raw, 40, ndim)
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiFormatError) as exc:
            read_nifti(path)
        assert exc.value.code == "bad-dims"

    def test_nonpositive_dimension(self, tmp_path):
        path = self.good_path(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<h", raw, 42, 0)  # first spatial extent
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiFormatError) as exc:
            read_nifti(path)
        assert exc.value.code == "bad-dims"

    def test_truncated_body(self, tmp_path):
        path = self.good_path(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(NiftiFormatError) as exc:
            read_nifti(path)
        assert exc.value.code == "truncated"

    @pytest.mark.parametrize("offset", [0.0, 348.0, 351.0, float("nan"), float("inf")])
    def test_offset_inside_the_header(self, tmp_path, offset):
        # the data may not start inside the 348-byte header or its 4-byte
        # extension flag, nor at an offset that is not a number
        path = self.good_path(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 108, offset)
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiFormatError, match="vox_offset") as exc:
            read_nifti(path)
        assert exc.value.code == "bad-offset"

    def test_error_is_a_value_error(self, tmp_path):
        path = tmp_path / "e.nii"
        path.write_bytes(b"")
        with pytest.raises(ValueError):
            read_nifti(path)
