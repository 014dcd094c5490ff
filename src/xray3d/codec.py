"""Layered surface tensor codec.

An X-Ray of a view is its hits. Encoding casts one ray per pixel through a
mesh and keeps each ray's nearest L surface crossings as records of 7
floats, [depth, nx, ny, nz, r, g, b]: layer k of a pixel is its ray's k-th
nearest hit. Decoding replays the camera rays and lifts every hit back to
an oriented, colored 3D point. Both work on the hits alone, so their cost
follows the hit count, not L x H x W; the dense L x 8 x H x W tensor
[hit, depth, nx, ny, nz, r, g, b] is built only on request. The `.xray`
format stores tensors losslessly (little-endian): version 2, which
`write_xray` writes, holds the hit-count plane and the records; version 1
holds the dense tensor.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .camera import Camera, _pose_error, generate_rays
from .mesh import TriangleMesh, _frozen, _ramp, surface_attributes
from .raycast import BvhAccel, build_bvh, cast_rays

MAGIC = b"XRAY"
FORMAT_VERSION = 2
DTYPE_F32 = 1

_HEADER = struct.Struct("<4sIIIIf16fI")

# Channels of the dense tensor. A hit record holds channels 1-7, so its
# normal and colour are record columns 1-3 and 4-6.
CH_HIT = 0
CH_DEPTH = 1
_NORMAL = slice(1, 4)
_COLOR = slice(4, 7)
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
    """Malformed `.xray` file (bad magic, version, hit counts, or payload size)."""


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
            if not np.isfinite(arr).all():  # locate the entry only once one is bad
                i = np.argwhere(~np.isfinite(arr))[0, 0]
                raise ValueError(f"non-finite {name} at point {i}")
        if len(nrm):
            lengths = np.linalg.norm(nrm, axis=1)
            if np.abs(lengths - 1.0).max() > 1e-3:
                i = np.argmax(np.abs(lengths - 1.0) > 1e-3)
                raise ValueError(f"normals must be unit length (within 1e-3), "
                                 f"got length {lengths[i]!s} at point {i}")
        if len(col) and (col.min() < 0 or col.max() > 1):
            i, k = np.argwhere((col < 0) | (col > 1))[0]
            raise ValueError(f"colors must lie in [0, 1], got {col[i, k]!s} at point {i}")
        _set_points(self, pos, nrm, col)

    def __len__(self) -> int:
        return len(self.positions)


def _set_points(cloud: PointCloud, positions, normals, colors) -> PointCloud:
    """Give cloud its (n, 3) float64 arrays, read-only, unchecked: decode
    builds a cloud this way from values it has already checked."""
    for name, arr in (("positions", positions), ("normals", normals), ("colors", colors)):
        object.__setattr__(cloud, name, _frozen(arr))
    return cloud


@dataclass(frozen=True)
class XRayTensor:
    """One camera view's hits: an (H, W) hit-count plane and one record per hit.

    counts[row, col] is how many of the pixel's ray crossings are kept, at
    most `layers`; layer k of a pixel is its k-th nearest hit, so hits are
    prefix-dense along the layer axis by construction. records is an
    (N, 7) float32 array, N = counts.sum(), of [depth, nx, ny, nz, r, g, b]
    rows in (layer, row, col) order, the order decode emits points in.
    The contract on the records (finite, depths positive and strictly
    increasing within a pixel, unit normals, colours in [0, 1]) and on the
    header pose is checked by validate and decode_to_pointcloud.

    `data` builds the dense L x 8 x H x W float32 tensor on request, with
    channels [hit, depth, normal (3), RGB (3)], all zero where hit = 0;
    `from_dense` converts such a tensor back.
    """

    layers: int
    counts: np.ndarray
    records: np.ndarray
    fov_x: float
    c2w: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 2 or counts.dtype.kind not in "iu":
            raise XRayDataError(f"expected an (H, W) integer hit-count plane, "
                                f"got {counts.dtype} of shape {counts.shape}")
        _check_counts(counts, self.layers)
        records = np.asarray(self.records, dtype=np.float32)
        hits = int(counts.sum())
        if records.shape != (hits, 7):
            raise XRayDataError(f"expected ({hits}, 7) hit records for the hit counts, "
                                f"got {records.shape}")
        c2w = np.asarray(self.c2w, dtype=np.float32).reshape(4, 4)
        object.__setattr__(self, "layers", int(self.layers))
        object.__setattr__(self, "counts", _frozen(counts.astype(np.uint32, copy=False)))
        object.__setattr__(self, "records", _frozen(records))
        object.__setattr__(self, "c2w", _frozen(c2w))
        object.__setattr__(self, "fov_x", float(np.float32(self.fov_x)))

    @classmethod
    def from_dense(cls, data, fov_x, c2w) -> XRayTensor:
        """The tensor of a dense (L, 8, H, W) array. It checks what records
        cannot hold: every unhit slot zero, hit values 0 or 1 and prefix-dense
        hits. XRayDataError names the first bad entry's layer, pixel and value."""
        data = np.asarray(data, dtype=np.float32)
        if data.ndim != 4 or data.shape[1] != 8:
            raise XRayDataError(f"expected (L, 8, H, W) data, got {data.shape}")
        mask = data[:, CH_HIT] > 0.5
        unhit = ~mask
        for ch in range(8):  # NaN != 0, so this also finds a non-finite unhit value
            stray = (data[:, ch] != 0) & unhit
            if stray.any():
                raise XRayDataError(_bad_value(ch, data[:, ch][stray][0], _place(stray)))
        flags = data[:, CH_HIT][mask]
        bad = np.abs(flags - 1.0) > 1e-6  # true for +inf too
        if bad.any():
            i = np.argmax(bad)
            raise XRayDataError(_bad_value(CH_HIT, flags[i], _place(mask, i)))
        gap = ~mask[:-1] & mask[1:]
        if gap.any():
            raise XRayDataError(f"hit flags are not prefix-dense: no hit {_place(gap)}, "
                                "but a hit at the next layer")
        records = data[:, CH_DEPTH:].transpose(0, 2, 3, 1)[mask]
        return cls(len(data), mask.sum(axis=0), records, fov_x, c2w)

    @property
    def height(self) -> int:
        return self.counts.shape[0]

    @property
    def width(self) -> int:
        return self.counts.shape[1]

    @property
    def data(self) -> np.ndarray:
        """The dense L x 8 x H x W float32 tensor, built by one scatter."""
        layer, pixel, _ = self._slots()
        data = np.zeros((self.layers, 8, self.height * self.width), dtype=np.float32)
        data[layer, CH_HIT, pixel] = 1.0
        data[layer, CH_DEPTH:, pixel] = self.records
        return data.reshape(self.layers, 8, self.height, self.width)

    def camera(self) -> Camera:
        c2w = self.c2w.astype(np.float64)
        # The stored pose is float32-quantized; project the rotation back
        # onto the nearest orthonormal matrix before ray generation. Only
        # rounding is repaired here: _hit_slots rejects anything larger.
        u, _, vt = np.linalg.svd(c2w[:3, :3])
        c2w[:3, :3] = u @ vt
        return Camera(self.width, self.height, self.fov_x, c2w)

    def _slots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each record's layer and flat pixel index, and where it falls when
        the records are put in (row, col, layer) order, which keeps each
        pixel's hits adjacent. One stable radix sort by layer; O(hits + H W)."""
        counts = self.counts.ravel().astype(np.int64)
        rank = _ramp(counts)  # each hit's layer, in (row, col, layer) order
        order = np.argsort(rank.astype(np.min_scalar_type(self.layers)), kind="stable")
        return rank[order], np.repeat(np.arange(counts.size), counts)[order], order

    def _at(self, layer: np.ndarray, pixel: np.ndarray, i: int) -> str:
        row, col = divmod(int(pixel[i]), self.width)
        return f"at layer {layer[i]}, pixel ({row}, {col})"

    def _hit_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """Check the codec contract, all but unit normals, and return each
        record's layer and flat pixel index. Contract: a pinhole header pose
        (Camera's rule at the float32 tolerance _POSE_TOL), finite records,
        positive and strictly increasing depths, colours in [0, 1].
        XRayDataError names the field, or the first bad record's layer,
        pixel and value."""
        error = _pose_error(self.fov_x, self.c2w.astype(np.float64), _POSE_TOL)
        if error:
            raise XRayDataError(error)
        layer, pixel, order = self._slots()
        records = self.records
        if not np.isfinite(records).all():
            i, k = np.argwhere(~np.isfinite(records))[0]
            raise XRayDataError(f"non-finite {_CHANNEL_NAMES[CH_DEPTH + k]} "
                                f"{self._at(layer, pixel, i)}")
        depth = records[:, 0]
        bad = depth <= 0
        if bad.any():
            i = np.argmax(bad)
            raise XRayDataError(f"non-positive depth {depth[i]!s} {self._at(layer, pixel, i)}")
        adjacent = np.empty_like(depth)
        adjacent[order] = depth
        near = adjacent[order - 1]  # the depth in front, where layer > 0
        bad = (layer > 0) & (depth <= near)
        if bad.any():
            i = np.argmax(bad)
            row, col = divmod(int(pixel[i]), self.width)
            raise XRayDataError(f"depths do not strictly increase: {depth[i]!s} at layer "
                                f"{layer[i]} after {near[i]!s} at layer {layer[i] - 1}, "
                                f"pixel ({row}, {col})")
        colors = records[:, _COLOR]
        bad = (colors < 0) | (colors > 1)
        if bad.any():
            i, k = np.argwhere(bad)[0]
            raise XRayDataError(f"color {colors[i, k]!s} outside [0, 1] "
                                f"{self._at(layer, pixel, i)}")
        return layer, pixel

    def hit_mask(self) -> np.ndarray:
        return self.counts > np.arange(self.layers)[:, None, None]

    def validate(self) -> None:
        """Check every tensor invariant, unit normals included; raises
        XRayDataError naming the first violating entry's layer, pixel and value."""
        layer, pixel = self._hit_slots()
        lengths = np.linalg.norm(self.records[:, _NORMAL], axis=1)
        bad = np.abs(lengths - 1.0) > 1e-3
        if bad.any():
            i = np.argmax(bad)
            raise XRayDataError(f"hit normal of length {lengths[i]!s} is not unit length "
                                f"(within 1e-3) {self._at(layer, pixel, i)}")

    def total_hits(self) -> int:
        return len(self.records)

    def layer_occupancy(self) -> np.ndarray:
        """Fraction of pixels hit at each layer."""
        pixels = np.bincount(self.counts.ravel(), minlength=self.layers + 1)
        return np.cumsum(pixels[::-1])[::-1][1:] / self.counts.size


def _check_counts(counts: np.ndarray, layers: int, error=XRayDataError) -> None:
    """Each pixel keeps 0 to `layers` hits; the error names the first pixel
    outside that range."""
    if layers < 1:
        raise error(f"need at least one layer, got {layers!r}")
    bad = (counts < 0) | (counts > layers)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise error(f"hit count {counts[row, col]} at pixel ({row}, {col}) "
                            f"is outside [0, L={layers}]")


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
    if mesh.is_empty:
        return XRayTensor(layers, np.zeros((h, w), dtype=np.uint32),
                          np.empty((0, 7), dtype=np.float32), camera.fov_x, camera.c2w)

    if accel is None:
        accel = build_bvh(mesh)
    dirs = generate_rays(camera).reshape(-1, 3)
    batch = cast_rays(accel, np.broadcast_to(camera.position, dirs.shape), dirs, layers)
    # The hits come in (ray, layer) order; a stable sort by layer puts them in
    # (layer, row, col) order.
    order = np.argsort(batch.layer.astype(np.min_scalar_type(layers)), kind="stable")
    normal, color = surface_attributes(mesh, batch.face[order], batch.bary_u[order],
                                       batch.bary_v[order])
    records = np.empty((len(order), 7), dtype=np.float32)
    records[:, 0] = batch.depth[order]
    records[:, _NORMAL] = normal
    records[:, _COLOR] = color
    counts = np.bincount(batch.ray, minlength=h * w).reshape(h, w)
    return XRayTensor(layers, counts, records, camera.fov_x, camera.c2w)


def pad_or_truncate(x: XRayTensor, target_layers: int) -> XRayTensor:
    """Zero-pad or drop layers from the deep end to reach `target_layers`.

    Padding keeps x's records; dropping layers keeps a prefix of them, a
    read-only view, since the records are in (layer, row, col) order.
    """
    if target_layers < 1:
        raise ValueError(f"target layer count must be at least 1, got {target_layers!r}")
    if target_layers == x.layers:
        return x
    counts = np.minimum(x.counts, target_layers)
    return XRayTensor(target_layers, counts, x.records[:int(counts.sum())], x.fov_x, x.c2w)


def decode_to_pointcloud(x: XRayTensor, frame: str = "camera") -> PointCloud:
    """Lift every hit back to a 3D point: position = camera position +
    depth * the pixel's unit ray direction (generate_rays).

    frame="camera" replays rays with an identity pose (points in camera
    coordinates, rays from the origin); frame="world" uses the stored
    camera-to-world pose. Every tensor that x.validate() rejects raises
    its XRayDataError here too, except a hit normal of length other than
    1, which is renormalised; a zero-length one names its layer and pixel.
    Each record is checked once: the PointCloud is built from the checked
    values without a second scan.
    """
    if frame not in ("camera", "world"):
        raise ValueError(f"unknown frame {frame!r}")
    layer, pixel = x._hit_slots()
    camera = Camera(x.width, x.height, x.fov_x, np.eye(4)) if frame == "camera" else x.camera()
    depth = x.records[:, 0].astype(np.float64)
    positions = camera.position + depth[:, None] * generate_rays(camera).reshape(-1, 3)[pixel]

    normals = x.records[:, _NORMAL].astype(np.float64)
    lengths = np.linalg.norm(normals, axis=1, keepdims=True)
    if not lengths.all():
        raise XRayDataError(f"zero-length normal {x._at(layer, pixel, np.argmin(lengths))}")
    normals /= lengths
    colors = x.records[:, _COLOR].astype(np.float64)
    return _set_points(object.__new__(PointCloud), positions, normals, colors)


def storage_ratio(layers: int, grid_resolution: int) -> float:
    """Fraction of a dense grid_resolution^3 voxel volume saved by storing
    only `layers` surface frames at the same pixel footprint."""
    if layers < 1 or grid_resolution < 1:
        raise ValueError("layer count and grid resolution must be at least 1, "
                         f"got {layers!r} and {grid_resolution!r}")
    return 1.0 - layers / grid_resolution


def write_xray(x: XRayTensor, path) -> None:
    """Serialize losslessly as version 2: the header, the u32 hit-count
    plane and the f32 records. read_xray(write_xray(x)) is bitwise identical."""
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
        fh.write(np.ascontiguousarray(x.counts, dtype="<u4").data)
        fh.write(np.ascontiguousarray(x.records, dtype="<f4").data)


def read_xray(path) -> XRayTensor:
    """Read a version 1 (dense) or version 2 (hit records) file into the same
    tensor. A version 2 tensor's arrays are read-only views of the file's bytes."""
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
    if version not in (1, 2):
        raise XRayFormatError(f"unsupported version {version}")
    if dtype_tag != DTYPE_F32:
        raise XRayFormatError(f"unsupported dtype tag {dtype_tag}")
    if min(layers, height, width) < 1:
        raise XRayFormatError(f"non-positive tensor dimensions L={layers}, H={height}, W={width}")
    payload = len(raw) - _HEADER.size
    if version == 1:
        expected = layers * 8 * height * width * 4
    else:
        plane = 4 * height * width
        if payload < plane:
            raise XRayFormatError(f"truncated hit-count plane: {payload} bytes, expected {plane}")
        counts = np.frombuffer(raw, dtype="<u4", count=height * width, offset=_HEADER.size)
        counts = counts.reshape(height, width)
        _check_counts(counts, layers, XRayFormatError)
        expected = plane + 28 * int(counts.sum(dtype=np.uint64))
    if payload < expected:
        raise XRayFormatError(f"truncated payload: {payload} bytes, expected {expected}")
    if payload > expected:
        raise XRayFormatError(f"payload size mismatch: {payload} bytes, expected {expected}")
    if version == 1:
        data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
        return XRayTensor.from_dense(data.reshape(layers, 8, height, width), fov_x, c2w)
    records = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size + plane).reshape(-1, 7)
    return XRayTensor(layers, counts, records, fov_x, c2w)
