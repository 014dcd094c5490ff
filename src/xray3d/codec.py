"""Layered surface tensor codec.

Encoding casts one ray per pixel through a mesh and records, for up to L
surface crossings in depth order, an 8-channel sample per layer:
[hit, depth, nx, ny, nz, r, g, b]. Decoding replays the camera rays and
lifts every hit back to an oriented, colored 3D point. The `.xray` file
format stores tensors losslessly (float32, little-endian).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .camera import Camera, _pose_error, generate_rays
from .mesh import TriangleMesh, _frozen, surface_attributes
from .raycast import BvhAccel, build_bvh, cast_rays

MAGIC = b"XRAY"
FORMAT_VERSION = 1
DTYPE_F32 = 1

_HEADER = struct.Struct("<4sIIIIf16fI")

CH_HIT = 0
CH_DEPTH = 1
CH_NORMAL = slice(2, 5)
CH_COLOR = slice(5, 8)
_CHANNEL_NAMES = ("hit", "depth", "normal", "normal", "normal", "color", "color", "color")
# Largest |R R^T - I| entry accepted for a stored pose: float32 rounding of
# an orthonormal matrix reaches about 2e-7, anything else is corruption.
_POSE_TOL = 1e-6


def _place(flags: np.ndarray, k: int = 0) -> str:
    """Where the k-th set entry of an (L, H, W) flag array lies."""
    layer, row, col = np.argwhere(flags)[k]
    return f"at layer {layer}, pixel ({row}, {col})"


def _bad_value(channel: int, value, where: str) -> str:
    """Message for a bad value at `where`: non-finite, a hit value other
    than 0 or 1, or else a non-zero value in an unhit slot."""
    if not np.isfinite(value):
        return f"non-finite {_CHANNEL_NAMES[channel]} {where}"
    if channel == CH_HIT:
        return f"corrupt hit channel (value {value!s} is neither 0 nor 1) {where}"
    return f"non-zero {_CHANNEL_NAMES[channel]} {value!s} {where}, which is unhit"


class XRayFormatError(ValueError):
    """Malformed `.xray` file (bad magic, version, or payload size)."""


class XRayDataError(ValueError):
    """Tensor contents violate the codec contract."""


@dataclass(frozen=True)
class PointCloud:
    """Oriented, colored point set decoded from a tensor or sampled from a mesh."""

    positions: np.ndarray
    normals: np.ndarray
    colors: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        nrm = np.asarray(self.normals, dtype=np.float64).reshape(-1, 3)
        col = np.asarray(self.colors, dtype=np.float64).reshape(-1, 3)
        if not (len(pos) == len(nrm) == len(col)):
            raise ValueError("positions, normals, and colors must have equal length")
        for name, arr in (("positions", pos), ("normals", nrm), ("colors", col)):
            bad = np.argwhere(~np.isfinite(arr))
            if len(bad):
                raise ValueError(f"non-finite {name} at point {bad[0, 0]}")
        if len(nrm):
            lengths = np.linalg.norm(nrm, axis=1)
            if np.abs(lengths - 1.0).max() > 1e-3:
                i = np.argmax(np.abs(lengths - 1.0) > 1e-3)
                raise ValueError(f"normals must be unit length (within 1e-3), "
                                 f"got length {lengths[i]!s} at point {i}")
        if len(col) and (col.min() < 0 or col.max() > 1):
            i, k = np.argwhere((col < 0) | (col > 1))[0]
            raise ValueError(f"colors must lie in [0, 1], got {col[i, k]!s} at point {i}")
        object.__setattr__(self, "positions", _frozen(pos))
        object.__setattr__(self, "normals", _frozen(nrm))
        object.__setattr__(self, "colors", _frozen(col))

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class XRayTensor:
    """L x 8 x H x W float32 tensor plus the camera that produced it.

    Channel order per layer: hit flag, depth, unit normal (3), RGB (3).
    Hits are prefix-dense along the layer axis and depths strictly
    increase within a pixel; all channels are zero where hit = 0.
    """

    data: np.ndarray
    fov_x: float
    c2w: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float32)
        if data.ndim != 4 or data.shape[1] != 8:
            raise XRayDataError(f"expected (L, 8, H, W) data, got {data.shape}")
        c2w = np.asarray(self.c2w, dtype=np.float32).reshape(4, 4)
        object.__setattr__(self, "data", _frozen(data))
        object.__setattr__(self, "c2w", _frozen(c2w))
        object.__setattr__(self, "fov_x", float(np.float32(self.fov_x)))

    @property
    def layers(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[2]

    @property
    def width(self) -> int:
        return self.data.shape[3]

    def camera(self) -> Camera:
        c2w = self.c2w.astype(np.float64)
        # The stored pose is float32-quantized; project the rotation back
        # onto the nearest orthonormal matrix before ray generation. Only
        # rounding is repaired here: _hit_records rejects anything larger.
        u, _, vt = np.linalg.svd(c2w[:3, :3])
        c2w[:3, :3] = u @ vt
        return Camera(self.width, self.height, self.fov_x, c2w)

    def _hit_records(self) -> tuple[np.ndarray, np.ndarray]:
        """Check the codec contract, all but unit normals; return the hit mask
        and one 8-float record per hit in (layer, row, col) order. Contract: a
        pinhole header pose (Camera's rule at the float32 tolerance _POSE_TOL),
        zero unhit slots, finite hit records with hit value 1, prefix-dense hits,
        positive and strictly increasing depths, colours in [0, 1]. XRayDataError
        names the field, or the first bad entry's layer, pixel and value."""
        error = _pose_error(self.fov_x, self.c2w.astype(np.float64), _POSE_TOL)
        if error:
            raise XRayDataError(error)
        mask = self.hit_mask()
        unhit = ~mask
        for ch in range(8):  # NaN != 0, so this also finds a non-finite unhit value
            stray = (self.data[:, ch] != 0) & unhit
            if stray.any():
                raise XRayDataError(_bad_value(ch, self.data[:, ch][stray][0], _place(stray)))
        hits = self.data.transpose(0, 2, 3, 1)[mask]
        bad = ~np.isfinite(hits)
        bad[:, CH_HIT] = np.abs(hits[:, CH_HIT] - 1.0) > 1e-6  # true for +inf too
        if bad.any():
            i, ch = np.argwhere(bad)[0]
            raise XRayDataError(_bad_value(ch, hits[i, ch], _place(mask, i)))
        gap = ~mask[:-1] & mask[1:]
        if gap.any():
            raise XRayDataError(f"hit flags are not prefix-dense: no hit {_place(gap)}, "
                                "but a hit at the next layer")
        bad = hits[:, CH_DEPTH] <= 0
        if bad.any():
            i = np.argmax(bad)
            raise XRayDataError(f"non-positive depth {hits[i, CH_DEPTH]!s} {_place(mask, i)}")
        depth = self.data[:, CH_DEPTH]
        bad = mask[1:] & (depth[1:] <= depth[:-1])  # mask[1:] implies mask[:-1] once dense
        if bad.any():
            layer, row, col = np.argwhere(bad)[0]
            near, far = depth[layer:layer + 2, row, col]
            raise XRayDataError(f"depths do not strictly increase: {far!s} at layer {layer + 1} "
                                f"after {near!s} at layer {layer}, pixel ({row}, {col})")
        colors = hits[:, CH_COLOR]
        bad = (colors < 0) | (colors > 1)
        if bad.any():
            i, k = np.argwhere(bad)[0]
            raise XRayDataError(f"color {colors[i, k]!s} outside [0, 1] {_place(mask, i)}")
        return mask, hits

    def hit_mask(self) -> np.ndarray:
        return self.data[:, CH_HIT] > 0.5

    def validate(self) -> None:
        """Check every tensor invariant, unit normals included; raises
        XRayDataError naming the first violating entry's layer, pixel and value."""
        mask, hits = self._hit_records()
        lengths = np.linalg.norm(hits[:, CH_NORMAL], axis=1)
        bad = np.abs(lengths - 1.0) > 1e-3
        if bad.any():
            i = np.argmax(bad)
            raise XRayDataError(f"hit normal of length {lengths[i]!s} is not unit length "
                                f"(within 1e-3) {_place(mask, i)}")

    def total_hits(self) -> int:
        return int(self.hit_mask().sum())

    def layer_occupancy(self) -> np.ndarray:
        """Fraction of pixels hit at each layer."""
        return self.hit_mask().mean(axis=(1, 2))


def encode(
    mesh: TriangleMesh,
    camera: Camera,
    layers: int,
    accel: BvhAccel | None = None,
) -> XRayTensor:
    """Encode a mesh into a layered surface tensor for one camera view.

    Layer k of a pixel holds the k-th nearest hit of its ray, so the
    nearest `layers` intersections per pixel are kept and deeper ones
    are never recorded. Pass a prebuilt `accel` to reuse the BVH across
    views.
    """
    if layers < 1:
        raise ValueError(f"need at least one layer, got {layers!r}")
    h, w = camera.height, camera.width
    data = np.zeros((layers, 8, h, w), dtype=np.float32)
    if mesh.is_empty:
        return XRayTensor(data, camera.fov_x, camera.c2w)

    if accel is None:
        accel = build_bvh(mesh)
    dirs = generate_rays(camera).reshape(-1, 3)
    batch = cast_rays(accel, np.broadcast_to(camera.position, dirs.shape), dirs, layers)
    layer, row, col = batch.layer, batch.ray // w, batch.ray % w
    normal, color = surface_attributes(mesh, batch.face, batch.bary_u, batch.bary_v)
    data[layer, CH_HIT, row, col] = 1.0
    data[layer, CH_DEPTH, row, col] = batch.depth
    for k in range(3):
        data[layer, 2 + k, row, col] = normal[:, k]
        data[layer, 5 + k, row, col] = color[:, k]
    return XRayTensor(data, camera.fov_x, camera.c2w)


def pad_or_truncate(x: XRayTensor, target_layers: int) -> XRayTensor:
    """Zero-pad or drop layers from the deep end to reach `target_layers`.

    Dropping layers copies nothing: the result's data is a read-only view
    of the leading layers of x's.
    """
    if target_layers < 1:
        raise ValueError(f"target layer count must be at least 1, got {target_layers!r}")
    if target_layers == x.layers:
        return x
    if target_layers < x.layers:
        return XRayTensor(x.data[:target_layers], x.fov_x, x.c2w)
    data = np.zeros((target_layers, 8, x.height, x.width), dtype=np.float32)
    data[:x.layers] = x.data
    return XRayTensor(data, x.fov_x, x.c2w)


def decode_to_pointcloud(x: XRayTensor, frame: str = "camera") -> PointCloud:
    """Lift every hit back to a 3D point: position = camera position +
    depth * the pixel's unit ray direction (generate_rays).

    frame="camera" replays rays with an identity pose (points in camera
    coordinates, rays from the origin); frame="world" uses the stored
    camera-to-world pose. Every tensor that x.validate() rejects raises
    its XRayDataError here too, except a hit normal of length other than
    1, which is renormalised; a zero-length one names its layer and pixel.
    """
    if frame not in ("camera", "world"):
        raise ValueError(f"unknown frame {frame!r}")
    mask, hits = x._hit_records()
    if not len(hits):
        empty = np.empty((0, 3))
        return PointCloud(empty, empty.copy(), empty.copy())

    camera = Camera(x.width, x.height, x.fov_x, np.eye(4)) if frame == "camera" else x.camera()
    _, row_idx, col_idx = np.nonzero(mask)
    depth = hits[:, CH_DEPTH].astype(np.float64)
    positions = camera.position + depth[:, None] * generate_rays(camera)[row_idx, col_idx]

    normals = hits[:, CH_NORMAL].astype(np.float64)
    lengths = np.linalg.norm(normals, axis=1, keepdims=True)
    if not lengths.all():
        raise XRayDataError(f"zero-length normal {_place(mask, np.argmin(lengths))}")
    normals /= lengths
    colors = hits[:, CH_COLOR].astype(np.float64)
    return PointCloud(positions, normals, colors)


def storage_ratio(layers: int, grid_resolution: int) -> float:
    """Fraction of a dense grid_resolution^3 voxel volume saved by storing
    only `layers` surface frames at the same pixel footprint."""
    if layers < 1 or grid_resolution < 1:
        raise ValueError("layer count and grid resolution must be at least 1, "
                         f"got {layers!r} and {grid_resolution!r}")
    return 1.0 - layers / grid_resolution


def write_xray(x: XRayTensor, path) -> None:
    """Serialize losslessly; read_xray(write_xray(x)) is bitwise identical."""
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        x.layers,
        x.height,
        x.width,
        np.float32(x.fov_x),
        *[float(v) for v in x.c2w.reshape(16)],
        DTYPE_F32,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(x.data, dtype="<f4").data)


def read_xray(path) -> XRayTensor:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise XRayFormatError("file too short for header")
    fields = _HEADER.unpack_from(raw)
    magic, version, layers, height, width, fov_x = fields[:6]
    c2w = np.array(fields[6:22], dtype=np.float32).reshape(4, 4)
    dtype_tag = fields[22]
    if magic != MAGIC:
        raise XRayFormatError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise XRayFormatError(f"unsupported version {version}")
    if dtype_tag != DTYPE_F32:
        raise XRayFormatError(f"unsupported dtype tag {dtype_tag}")
    if min(layers, height, width) < 1:
        raise XRayFormatError(f"non-positive tensor dimensions L={layers}, H={height}, W={width}")
    expected = layers * 8 * height * width * 4
    payload = len(raw) - _HEADER.size
    if payload < expected:
        raise XRayFormatError(f"truncated payload: {payload} bytes, expected {expected}")
    if payload > expected:
        raise XRayFormatError(f"payload size mismatch: {payload} bytes, expected {expected}")
    data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(layers, 8, height, width)
    return XRayTensor(data, float(fov_x), c2w)
