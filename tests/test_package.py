import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import noisyqfi


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted fails here
    for info in pkgutil.iter_modules(noisyqfi.__path__):
        module = importlib.import_module(f"noisyqfi.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (info.name, missing)


def test_numpy_is_the_only_runtime_dependency():
    allowed = sys.stdlib_module_names | {"numpy", "noisyqfi"}
    outside = []
    for path in sorted(Path(noisyqfi.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in allowed]
    assert not outside


def test_declared_numpy_floor_is_at_least_two():
    # np.vecdot and np.bitwise_count, which the package calls, are numpy 2
    # functions; tomllib is missing on Python 3.10, so the line is matched
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    text = pyproject.read_text(encoding="utf-8")
    [floor] = re.findall(r'"numpy>=(\d+)(?:\.(\d+))?', text)
    assert (int(floor[0]), int(floor[1] or 0)) >= (2, 0)
