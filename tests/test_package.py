import fermatlucas


def test_every_exported_name_resolves():
    missing = [name for name in fermatlucas.__all__ if not hasattr(fermatlucas, name)]
    assert missing == []
    assert len(set(fermatlucas.__all__)) == len(fermatlucas.__all__)
