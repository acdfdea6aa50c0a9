import cavityclock


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from cavityclock import *", namespace)
    exported = cavityclock.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        assert namespace[name] is getattr(cavityclock, name)
