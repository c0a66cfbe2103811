import importlib
import pkgutil

import pytest

import inertonsim

_MODULES = [inertonsim] + [
    importlib.import_module(f"inertonsim.{info.name}") for info in pkgutil.iter_modules(inertonsim.__path__)
]


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    # a name left in __all__ after its definition is deleted breaks `import *`
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
