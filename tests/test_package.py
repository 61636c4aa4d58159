import dgspec


def test_public_names_sorted_unique_and_bound():
    names = dgspec.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(dgspec, name), name
