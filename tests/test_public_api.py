import entlqg


def test_every_exported_name_resolves_once():
    names = entlqg.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(entlqg, n)] == []
