"""Minimal single-file uncompressed NIfTI-1 reader and writer.

Covers exactly what the pipeline needs: 3-D masks/maps and 4-D volumes,
little-endian int16/float32/float64 with scl_slope/scl_inter applied on
read, float32 on write. Compressed files and other datatypes are out of
scope; preprocessing tools can convert.
"""

from __future__ import annotations

import struct

import numpy as np

from .volume import DEFAULT_VOXEL_SIZE_MM, Volume4D

HEADER_SIZE = 348
VOX_OFFSET = 352  # header + 4-byte extension flag
MAGIC = b"n+1\x00"

# NIfTI-1 datatype codes
_DTYPES = {4: np.dtype("<i2"), 16: np.dtype("<f4"), 64: np.dtype("<f8")}


class NiftiFormatError(ValueError):
    """Unreadable NIfTI file; `code` names the failure category."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def write_nifti(vol, path, voxel_size_mm=None, description: str = "") -> None:
    """Write a 3-D array, 4-D array, or Volume4D as float32 NIfTI-1.

    Axis order is (x, y, z[, t]) with x fastest on disk; voxel sizes go to
    pixdim in mm. Data must be finite (NaN map voxels are allowed only via
    explicit masking upstream — here NaN is preserved as float32 NaN).
    """
    if isinstance(vol, Volume4D):
        data = vol.data
        sizes = vol.voxel_size_mm if voxel_size_mm is None else voxel_size_mm
    else:
        data = np.asarray(vol, dtype=np.float64)
        sizes = DEFAULT_VOXEL_SIZE_MM if voxel_size_mm is None else voxel_size_mm
    if data.ndim not in (3, 4):
        raise ValueError("can only write 3-D or 4-D images")

    dim = np.ones(8, dtype="<i2")
    dim[0] = data.ndim
    dim[1 : 1 + data.ndim] = data.shape
    pixdim = np.zeros(8, dtype="<f4")
    pixdim[0] = 1.0
    pixdim[1:4] = sizes
    if data.ndim == 4:
        pixdim[4] = 1.0

    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<8h", hdr, 40, *dim)
    struct.pack_into("<h", hdr, 70, 16)  # float32
    struct.pack_into("<h", hdr, 72, 32)
    struct.pack_into("<8f", hdr, 76, *pixdim)
    struct.pack_into("<f", hdr, 108, float(VOX_OFFSET))
    struct.pack_into("<f", hdr, 112, 1.0)  # scl_slope
    struct.pack_into("<f", hdr, 116, 0.0)  # scl_inter
    struct.pack_into("<b", hdr, 123, 10)  # xyzt_units: mm | sec
    desc = description.encode("utf-8")[:79]
    hdr[148 : 148 + len(desc)] = desc
    hdr[344:348] = MAGIC

    with open(path, "wb") as fh:
        fh.write(bytes(hdr))
        fh.write(b"\x00\x00\x00\x00")  # no header extensions
        fh.write(np.ascontiguousarray(data, dtype=np.float64).astype("<f4").tobytes(order="F"))


def _check_header(raw: bytes, path) -> None:
    if len(raw) < HEADER_SIZE:
        raise NiftiFormatError("truncated", f"file is shorter than a NIfTI-1 header: {path}")
    if raw[344:348] not in (b"n+1\x00", b"ni1\x00"):
        raise NiftiFormatError("bad-magic", f"not a NIfTI-1 file (magic {raw[344:348]!r}): {path}")
    if raw[344:348] == b"ni1\x00":
        raise NiftiFormatError("bad-magic", f"two-file NIfTI (.hdr/.img) is not supported: {path}")


def _read_header(path) -> bytes:
    with open(path, "rb") as fh:
        raw = fh.read(HEADER_SIZE)
    _check_header(raw, path)
    return raw


def _voxel_size(raw: bytes) -> tuple[float, float, float]:
    """pixdim[1:4] of a NIfTI-1 header: the voxel size in mm."""
    return tuple(float(p) for p in struct.unpack_from("<3f", raw, 80))


def read_description(path) -> str:
    """The text of a NIfTI-1 file's 80-byte header description (descrip)."""
    raw = _read_header(path)
    return raw[148:228].split(b"\x00", 1)[0].decode("utf-8", errors="replace")


def read_voxel_size(path) -> tuple[float, float, float]:
    """The voxel size in mm (pixdim[1:4]) from a NIfTI-1 file's header."""
    return _voxel_size(_read_header(path))


def read_nifti(path):
    """Read a single-file uncompressed NIfTI-1 image.

    Returns a Volume4D for 4-D files (mask = all-finite voxels) and a bare
    ndarray for 3-D files; scl_slope/scl_inter are applied (slope 0 is
    treated as 1 per the format's convention). Data may not start before
    byte VOX_OFFSET, inside the header or its extension flag.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    _check_header(raw, path)

    dim = struct.unpack_from("<8h", raw, 40)
    ndim = dim[0]
    if ndim not in (3, 4):
        raise NiftiFormatError("bad-dims", f"only 3-D and 4-D images are supported, got {ndim}-D")
    shape = tuple(int(d) for d in dim[1 : 1 + ndim])
    if any(d < 1 for d in shape):
        raise NiftiFormatError("bad-dims", f"non-positive dimension in {shape}")
    (datatype,) = struct.unpack_from("<h", raw, 70)
    if datatype not in _DTYPES:
        raise NiftiFormatError(
            "bad-datatype", f"unsupported NIfTI datatype code {datatype} (need 4, 16, or 64)"
        )
    (vox_offset,) = struct.unpack_from("<f", raw, 108)
    (slope,) = struct.unpack_from("<f", raw, 112)
    (inter,) = struct.unpack_from("<f", raw, 116)
    if slope == 0.0:
        slope = 1.0
    if not (np.isfinite(vox_offset) and vox_offset >= VOX_OFFSET):
        raise NiftiFormatError("bad-offset", f"vox_offset {vox_offset} must be finite and >= {VOX_OFFSET}")

    offset = int(vox_offset)
    dt = _DTYPES[datatype]
    count = int(np.prod(shape))
    need = offset + count * dt.itemsize
    if len(raw) < need:
        raise NiftiFormatError(
            "truncated", f"file holds {len(raw)} bytes, needs {need} for {shape} {dt.name}"
        )
    flat = np.frombuffer(raw, dtype=dt, count=count, offset=offset)
    data = flat.reshape(shape, order="F").astype(np.float64) * slope + inter

    if ndim == 3:
        return data
    mask = np.all(np.isfinite(data), axis=-1)
    safe = np.where(np.isfinite(data), data, 0.0)
    return Volume4D(safe, mask, _voxel_size(raw))
