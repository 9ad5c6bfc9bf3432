import importlib
import inspect

import pytest

MODULES = ["mesh", "elements", "space", "sparsela", "forms", "scheme", "mms"]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    """``__all__`` names exist, and are the module's own public functions and
    classes (constants and imported names are not counted)."""
    module = importlib.import_module(f"msfem.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
    defined = {n for n, obj in vars(module).items()
               if not n.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert set(module.__all__) == defined
