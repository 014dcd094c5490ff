"""Fault injection at the codec boundary: a `.xray` file with one corrupted
value, field or size must fail with an error that names it, at the first
boundary the fault reaches (read_xray for the byte format, validate and
decode_to_pointcloud for the contents)."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xray3d.camera import camera_from_spherical
from xray3d.codec import (
    XRayDataError,
    XRayFormatError,
    decode_to_pointcloud,
    encode,
    read_xray,
    write_xray,
)
from xray3d.fixtures import cube

# The v1 header, spelled out here rather than imported: magic, version,
# L, H, W, fov_x, c2w (16 floats, row-major), dtype tag.
HEADER = struct.Struct("<4sIIIIf16fI")
CHANNELS = ("hit", "depth", "normal", "normal", "normal", "color", "color", "color")
SHAPE = (2, 8, 6, 7)  # L, channels, H, W
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def valid_file(tmp_path_factory):
    """Bytes of a valid 2-layer 6x7 `.xray` file with hits in every layer."""
    layers, _, height, width = SHAPE
    camera = camera_from_spherical(30.0, 20.0, width=width, height=height)
    tensor = encode(cube(), camera, layers)
    assert tensor.hit_mask()[-1].any()
    path = tmp_path_factory.mktemp("faults") / "valid.xray"
    write_xray(tensor, path)
    return path.read_bytes()


def _reread(raw: bytes, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fault.xray"
    path.write_bytes(raw)
    return read_xray(path)


def _with_values(raw: bytes, edits) -> bytes:
    """raw with each (layer, channel, row, col) payload entry set to its value."""
    raw = bytearray(raw)
    for index, value in edits.items():
        offset = HEADER.size + 4 * np.ravel_multi_index(index, SHAPE)
        raw[offset:offset + 4] = struct.pack("<f", value)
    return bytes(raw)


def _assert_contents_rejected(tensor, message):
    """Both content boundaries name the fault with the same message."""
    for check in (tensor.validate, lambda: decode_to_pointcloud(tensor, frame="world")):
        with pytest.raises(XRayDataError) as info:
            check()
        assert str(info.value) == message


FIELDS = {"magic": 0, "version": 1, "layers": 2, "height": 3, "width": 4, "fov_x": 5,
          "dtype": 22}


def _with_header(raw: bytes, **changes) -> bytes:
    fields = list(HEADER.unpack_from(raw))
    for name, value in changes.items():
        if name == "c2w_entry":
            (row, col), value = value
            fields[6 + 4 * row + col] = value
        else:
            fields[FIELDS[name]] = value
    return HEADER.pack(*fields) + raw[HEADER.size:]


@given(
    channel=st.integers(0, 7),
    layer=st.integers(0, SHAPE[0] - 1),
    row=st.integers(0, SHAPE[2] - 1),
    col=st.integers(0, SHAPE[3] - 1),
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
)
@SETTINGS
def test_non_finite_payload_value_is_named(
    valid_file, tmp_path_factory, channel, layer, row, col, value
):
    tensor = _reread(_with_values(valid_file, {(layer, channel, row, col): value}),
                     tmp_path_factory)
    _assert_contents_rejected(
        tensor, f"non-finite {CHANNELS[channel]} at layer {layer}, pixel ({row}, {col})"
    )


FINITE = st.floats(width=32, allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("fault", ["gap", "unhit", "depth", "order", "color", "hit"])
@given(data=st.data())
@SETTINGS
def test_contract_fault_is_named_alike_by_validate_and_decode(
    valid_file, tmp_path_factory, fault, data
):
    payload = np.frombuffer(valid_file, dtype="<f4", offset=HEADER.size).reshape(SHAPE)
    hit = payload[:, 0] == 1
    front = np.argwhere(hit[1:])  # the slots that have a hit behind them
    slots = {"gap": front, "order": front + [1, 0, 0], "unhit": np.argwhere(~hit),
             "hit": np.argwhere(np.ones_like(hit))}.get(fault, np.argwhere(hit))
    layer, row, col = data.draw(st.sampled_from(slots.tolist()))
    place = f"at layer {layer}, pixel ({row}, {col})"
    if fault == "gap":  # empty the slot in front of a hit
        edits = {(layer, channel, row, col): 0.0 for channel in range(8)}
        message = f"hit flags are not prefix-dense: no hit {place}, but a hit at the next layer"
    elif fault == "unhit":
        channel = data.draw(st.integers(1, 7))
        value = np.float32(data.draw(FINITE.filter(lambda v: v != 0)))
        edits = {(layer, channel, row, col): value}
        message = f"non-zero {CHANNELS[channel]} {value!s} {place}, which is unhit"
    elif fault == "depth":
        value = np.float32(data.draw(FINITE.filter(lambda v: v <= 0)))
        edits = {(layer, 1, row, col): value}
        message = f"non-positive depth {value!s} {place}"
    elif fault == "order":  # the depth behind a hit, moved to or in front of it
        near = payload[layer - 1, 1, row, col]
        value = np.float32(data.draw(st.floats(0.0, float(near), width=32, exclude_min=True)))
        edits = {(layer, 1, row, col): value}
        message = (f"depths do not strictly increase: {value!s} at layer {layer} "
                   f"after {near!s} at layer {layer - 1}, pixel ({row}, {col})")
    elif fault == "color":
        channel = data.draw(st.integers(5, 7))
        value = np.float32(data.draw(FINITE.filter(lambda v: not 0 <= v <= 1)))
        edits = {(layer, channel, row, col): value}
        message = f"color {value!s} outside [0, 1] {place}"
    else:  # a hit value other than 0 or 1, in a hit slot or an unhit one
        value = np.float32(data.draw(FINITE.filter(lambda v: v != 0 and abs(v - 1) > 1e-6)))
        edits = {(layer, 0, row, col): value}
        message = f"corrupt hit channel (value {value!s} is neither 0 nor 1) {place}"
    _assert_contents_rejected(_reread(_with_values(valid_file, edits), tmp_path_factory), message)


@given(data=st.data(), scale=st.floats(0.01, 100).filter(lambda s: abs(s - 1) > 0.01))
@SETTINGS
def test_non_unit_normal_is_named_by_validate_and_renormalised_by_decode(
    valid_file, tmp_path_factory, data, scale
):
    payload = np.frombuffer(valid_file, dtype="<f4", offset=HEADER.size).reshape(SHAPE)
    layer, row, col = data.draw(st.sampled_from(np.argwhere(payload[:, 0] == 1).tolist()))
    normal = (payload[layer, 2:5, row, col] * scale).astype(np.float32)
    edits = {(layer, 2 + k, row, col): normal[k] for k in range(3)}
    tensor = _reread(_with_values(valid_file, edits), tmp_path_factory)
    with pytest.raises(XRayDataError) as info:
        tensor.validate()
    length, rest = str(info.value).removeprefix("hit normal of length ").split(" ", 1)
    assert float(length) == pytest.approx(np.linalg.norm(normal.astype(np.float64)), rel=1e-6)
    assert rest == f"is not unit length (within 1e-3) at layer {layer}, pixel ({row}, {col})"
    cloud = decode_to_pointcloud(tensor, frame="world")
    valid = decode_to_pointcloud(_reread(valid_file, tmp_path_factory), frame="world")
    np.testing.assert_array_equal(cloud.positions, valid.positions)
    np.testing.assert_allclose(cloud.normals, valid.normals, atol=1e-6)


@given(cut=st.integers(0, 4 * math.prod(SHAPE) + HEADER.size - 1))
@SETTINGS
def test_truncated_file_is_named(valid_file, tmp_path_factory, cut):
    expected = 4 * math.prod(SHAPE)
    if cut < HEADER.size:
        message = "file too short for header"
    else:
        message = f"truncated payload: {cut - HEADER.size} bytes, expected {expected}"
    with pytest.raises(XRayFormatError) as info:
        _reread(valid_file[:cut], tmp_path_factory)
    assert str(info.value) == message


@given(extra=st.binary(min_size=1, max_size=64))
@SETTINGS
def test_oversized_payload_is_named(valid_file, tmp_path_factory, extra):
    expected = 4 * math.prod(SHAPE)
    with pytest.raises(XRayFormatError) as info:
        _reread(valid_file + extra, tmp_path_factory)
    assert str(info.value) == (
        f"payload size mismatch: {expected + len(extra)} bytes, expected {expected}"
    )


@given(
    field=st.sampled_from(["magic", "version", "dtype", "layers", "height", "width"]),
    data=st.data(),
)
@SETTINGS
def test_corrupted_header_field_is_named(valid_file, tmp_path_factory, field, data):
    layers, _, height, width = SHAPE
    dims = {"layers": layers, "height": height, "width": width}
    if field == "magic":
        magic = data.draw(st.binary(min_size=4, max_size=4).filter(lambda b: b != b"XRAY"))
        raw, message = _with_header(valid_file, magic=magic), f"bad magic {magic!r}"
    elif field == "version":
        version = data.draw(st.integers(0, 2**32 - 1).filter(lambda v: v != 1))
        raw, message = _with_header(valid_file, version=version), f"unsupported version {version}"
    elif field == "dtype":
        tag = data.draw(st.integers(0, 2**32 - 1).filter(lambda v: v != 1))
        raw, message = _with_header(valid_file, dtype=tag), f"unsupported dtype tag {tag}"
    else:
        dims[field] = data.draw(st.integers(0, 64).filter(lambda v: v != dims[field]))
        raw = _with_header(valid_file, **{field: dims[field]})
        expected = 32 * dims["layers"] * dims["height"] * dims["width"]
        payload = len(valid_file) - HEADER.size
        if 0 in dims.values():
            message = ("non-positive tensor dimensions "
                       f"L={dims['layers']}, H={dims['height']}, W={dims['width']}")
        elif payload < expected:
            message = f"truncated payload: {payload} bytes, expected {expected}"
        else:
            message = f"payload size mismatch: {payload} bytes, expected {expected}"
    with pytest.raises(XRayFormatError) as info:
        _reread(raw, tmp_path_factory)
    assert str(info.value) == message


@given(fov_x=st.floats(width=32).filter(lambda v: not 0.0 < v < math.pi))
@SETTINGS
def test_bad_fov_is_named(valid_file, tmp_path_factory, fov_x):
    tensor = _reread(_with_header(valid_file, fov_x=fov_x), tmp_path_factory)
    _assert_contents_rejected(tensor, f"fov_x must lie in (0, pi), got {fov_x!r}")


@given(
    row=st.integers(0, 3),
    col=st.integers(0, 3),
    value=st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.floats(-1e3, 1e3, width=32),
    ),
)
@SETTINGS
def test_bad_c2w_entry_is_named(valid_file, tmp_path_factory, row, col, value):
    c2w = np.array(HEADER.unpack_from(valid_file)[6:22], dtype=np.float64).reshape(4, 4)
    if math.isfinite(value) and row < 3 and abs(value - c2w[row, col]) < 1e-3:
        value = c2w[row, col] + 1e-3  # a rotation change the float32 tolerance must catch
    tensor = _reread(_with_header(valid_file, c2w_entry=((row, col), value)), tmp_path_factory)
    c2w[row, col] = np.float32(value)
    if not math.isfinite(value):
        message = f"non-finite c2w[{row}, {col}] = {value!r}"
    elif row == 3:
        if c2w[3].tolist() == [0.0, 0.0, 0.0, 1.0]:
            return  # the drawn value is the one already stored
        message = f"c2w last row {c2w[3].tolist()} is not (0, 0, 0, 1)"
    elif col == 3:
        tensor.validate()  # any finite camera position is a valid pose
        assert len(decode_to_pointcloud(tensor, frame="world")) == tensor.total_hits()
        return
    else:
        prefix = f"c2w rotation {np.round(c2w[:3, :3], 6).tolist()} is not orthonormal "
        for check in (tensor.validate, lambda: decode_to_pointcloud(tensor, frame="world")):
            with pytest.raises(XRayDataError) as info:
                check()
            reach = str(info.value).removeprefix(prefix + "(|R R^T - I| reaches ")
            assert reach != str(info.value) and float(reach.rstrip(")")) > 1e-6
        return
    _assert_contents_rejected(tensor, message)
