import importlib
import pkgutil

import noisyqfi


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted fails here
    for info in pkgutil.iter_modules(noisyqfi.__path__):
        module = importlib.import_module(f"noisyqfi.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (info.name, missing)
