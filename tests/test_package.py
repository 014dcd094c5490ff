import numpy as np
import pytest

import xray3d
from xray3d.camera import Camera
from xray3d.codec import XRayTensor, pad_or_truncate, storage_ratio
from xray3d.fixtures import cube
from xray3d.metrics import sample_surface
from xray3d.poisson import GridSpec
from xray3d.sweep import run_sweep


def test_all_exports_resolve():
    assert len(set(xray3d.__all__)) == len(xray3d.__all__)
    for name in xray3d.__all__:
        assert getattr(xray3d, name) is not None, name


@pytest.mark.parametrize("call, message", [
    (lambda: Camera(0, 4, 0.8, np.eye(4)), "image dimensions must be at least 1 pixel, got 0x4"),
    (lambda: GridSpec(300), "resolution must be in [2, 256], got 300"),
    (lambda: sample_surface(cube(), 0), "need at least one sample, got 0"),
    (lambda: run_sweep({"cube": cube()}, [1], [1]), "resolutions must be at least 2, got 1"),
    (lambda: pad_or_truncate(XRayTensor.from_dense(np.zeros((1, 8, 2, 2)), 0.8, np.eye(4)), 0),
     "target layer count must be at least 1, got 0"),
    (lambda: storage_ratio(8, 0),
     "layer count and grid resolution must be at least 1, got 8 and 0"),
], ids=["camera", "grid-spec", "sample-surface", "run-sweep", "pad-or-truncate", "storage-ratio"])
def test_setting_errors_name_the_value(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
