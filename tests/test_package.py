import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
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


# What a fresh interpreter holds after importing the CLI: the process-pool
# and record modules that are loaded, and the dataclasses that noisyqfi defines.
_STARTUP_PROBE = """
import json, sys
import noisyqfi.cli
modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "noisyqfi"]
print(json.dumps({
    "pool": sorted({"concurrent.futures.process", "multiprocessing"} & set(sys.modules)),
    "records": sorted({"dataclasses", "copy"} & set(sys.modules)),
    "dataclasses": sorted(f"{m.__name__}.{name}" for m in modules
                          for name, v in vars(m).items()
                          if isinstance(v, type) and v.__module__ == m.__name__
                          and "__dataclass_fields__" in vars(v)),
}))
"""


def test_cli_import_loads_no_pool_and_few_dataclasses():
    # every CLI call pays these imports: the process pool is only for
    # --jobs > 1, and on Python 3.11 a dataclass takes about 1.1 ms to
    # create against 0.1 ms for a NamedTuple; the records are NamedTuples
    # and read-only holders, so neither dataclasses nor copy is imported
    src = Path(noisyqfi.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    loaded = json.loads(proc.stdout)
    assert loaded["pool"] == []
    assert loaded["records"] == []
    assert loaded["dataclasses"] == []


_DOMAIN_PHRASES = ("outside supported range", "outside domain", "leaves domain")


def test_domain_and_range_checks_raise_domain_error():
    # the CLI maps DomainError to exit 2; a cap or domain check that raised
    # a bare ValueError would fail its cell with exit 3 instead
    found, wrong = 0, []
    for path in sorted(Path(noisyqfi.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            text = "".join(part.value for part in ast.walk(node.exc)
                           if isinstance(part, ast.Constant) and isinstance(part.value, str))
            if any(phrase in text for phrase in _DOMAIN_PHRASES):
                found += 1
                if ast.unparse(node.exc.func) != "DomainError":
                    wrong.append((path.name, node.lineno))
    assert not wrong
    assert found >= 5  # the two lambda rules and the three qubit caps


def _package_imports(path: Path) -> set[str]:
    """The noisyqfi modules that a source file imports from."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module.split(".")[0]} if node.module else {
                alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("noisyqfi"):
            parts = node.module.split(".")
            found |= {parts[1]} if len(parts) > 1 else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("noisyqfi.")}
    return found


def test_what_outlives_the_pauli_engine_does_not_import_it():
    # the 4^n / 2^n Pauli engine (mstate and the line operations of series)
    # is to become a test oracle; the channel forms, the Fisher sums and the
    # exact QFI must not reach into it, so that retiring it is a deletion,
    # and mstate itself reads nothing but the channel forms
    src = Path(noisyqfi.__file__).parent
    imports = {path.stem: _package_imports(path) for path in src.glob("*.py")}
    reach = {name: sorted(imports[name] & {"mstate", "series"})
             for name in ("bloch", "expr", "config", "fisher", "blocks")}
    assert not any(reach.values()), reach
    assert imports["mstate"] == {"bloch"}
