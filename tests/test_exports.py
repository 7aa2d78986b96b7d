import importlib
from collections import Counter

import pytest

MODULES = ["lattice", "symbols", "operators", "normest", "dispersive", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_are_listed_once(name):
    # a name left in __all__ after its definition is gone breaks `import *`
    module = importlib.import_module(f"fiolab.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    repeated = [n for n, count in Counter(module.__all__).items() if count > 1]
    assert not missing and not repeated, (missing, repeated)
