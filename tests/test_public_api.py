import qconstel


def test_all_names_resolve_without_duplicates():
    assert len(qconstel.__all__) == len(set(qconstel.__all__))
    missing = [name for name in qconstel.__all__ if not hasattr(qconstel, name)]
    assert missing == []


def test_star_import_gives_exactly_all():
    namespace: dict = {}
    exec("from qconstel import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == sorted(qconstel.__all__)
