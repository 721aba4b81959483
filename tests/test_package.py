import bottleneck_lab


def test_all_names_resolve_once():
    names = bottleneck_lab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(bottleneck_lab, name)] == []
