import ptsynth


def test_public_names_resolve_and_star_import_works():
    for name in ptsynth.__all__:
        assert getattr(ptsynth, name) is not None, name
    namespace: dict = {}
    exec("from ptsynth import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ptsynth.__all__)
