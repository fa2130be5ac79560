import frechet_surfaces


def test_every_export_resolves_once():
    names = frechet_surfaces.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(frechet_surfaces, name), name
