"""4-D volume container (x, y, z, tau) with a brain mask, plus normalization and crop positions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .physics import AcquisitionProtocol, normalize_signal

DEFAULT_VOXEL_SIZE_MM = (2.3, 2.3, 7.5)


@dataclass
class Volume4D:
    """Signal volume of shape (h, w, d, n_t) and a boolean mask of shape (h, w, d).

    Masked-in voxels must hold finite data; everything outside the mask is
    ignored by training and analysis.
    """

    data: np.ndarray
    mask: np.ndarray | None = None
    voxel_size_mm: tuple[float, float, float] = DEFAULT_VOXEL_SIZE_MM

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 4:
            raise ValueError(f"volume data must be 4-D (h, w, d, n_t), got shape {self.data.shape}")
        if self.mask is None:
            self.mask = np.ones(self.data.shape[:3], dtype=bool)
        else:
            self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != self.data.shape[:3]:
            raise ValueError(
                f"mask shape {self.mask.shape} does not match volume grid {self.data.shape[:3]}"
            )
        if not np.all(np.isfinite(self.data[self.mask])):
            raise ValueError("masked voxels must hold finite data")
        self.voxel_size_mm = tuple(float(v) for v in self.voxel_size_mm)
        if len(self.voxel_size_mm) != 3 or any(v <= 0 for v in self.voxel_size_mm):
            raise ValueError("voxel_size_mm must be three positive lengths")

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        return self.data.shape[:3]

    @property
    def n_t(self) -> int:
        return self.data.shape[3]

    @property
    def n_masked(self) -> int:
        return int(self.mask.sum())


def normalize_volume(vol: Volume4D, proto: AcquisitionProtocol) -> tuple[Volume4D, int]:
    """Log-ratio normalization of every masked voxel against its spin-echo sample.

    Voxels with any non-positive sample cannot be log-normalized; they are
    dropped from the mask. Returns the normalized volume and the drop count.
    """
    if vol.n_t != proto.n_t:
        raise ValueError(f"volume has {vol.n_t} tau samples, protocol has {proto.n_t}")
    positive = np.all(vol.data > 0, axis=-1)
    keep = vol.mask & positive
    dropped = int(vol.mask.sum() - keep.sum())
    out = np.zeros_like(vol.data)
    out[keep] = normalize_signal(vol.data[keep], proto)
    return Volume4D(out, keep, vol.voxel_size_mm), dropped


def planes_first(arr: np.ndarray) -> np.ndarray:
    """Move the slice axis of an (h, w, d, ...) grid array to the front."""
    return np.ascontiguousarray(np.moveaxis(arr, 2, 0))


def valid_crop_corners(vol: Volume4D, size: int) -> np.ndarray:
    """Corners (x0, y0) whose size x size in-plane crop contains >= 1 masked voxel."""
    h, w, _ = vol.grid_shape
    if size > h or size > w:
        raise ValueError(f"crop size {size} exceeds in-plane grid ({h}, {w})")
    # count masked voxels under each candidate corner via a 2-D summed-area table
    flat = vol.mask.any(axis=2).astype(np.int64)
    sat = np.zeros((h + 1, w + 1), dtype=np.int64)
    sat[1:, 1:] = flat.cumsum(axis=0).cumsum(axis=1)
    nh, nw = h - size + 1, w - size + 1
    counts = (
        sat[size : size + nh, size : size + nw]
        - sat[0:nh, size : size + nw]
        - sat[size : size + nh, 0:nw]
        + sat[0:nh, 0:nw]
    )
    return np.argwhere(counts > 0)

