import shadowipw


def test_every_exported_name_resolves():
    missing = [name for name in shadowipw.__all__
               if not hasattr(shadowipw, name)]
    assert missing == []
    assert "fit_and_weight" in shadowipw.__all__
