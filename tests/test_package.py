"""The package namespace: __all__ lists exactly what qseq imports."""

import types

import qseq


def test_all_names_resolve():
    for name in qseq.__all__:
        assert hasattr(qseq, name), name


def test_all_is_the_set_of_public_imports():
    public = {name for name, value in vars(qseq).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(qseq.__all__) == len(set(qseq.__all__))
    assert set(qseq.__all__) == public
