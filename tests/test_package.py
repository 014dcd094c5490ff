import xray3d


def test_all_exports_resolve():
    assert len(set(xray3d.__all__)) == len(xray3d.__all__)
    for name in xray3d.__all__:
        assert getattr(xray3d, name) is not None, name
