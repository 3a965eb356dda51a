"""Every name that ``pushift`` exports, and every public function, method and
property that its modules define, is used by the package, a demo or the
benchmark; every ``<module>.<name>`` the benchmark reaches exists; and only
``errors.py`` decodes or writes JSON.

A use is the name as a code token (not in a string, comment or docstring) in
``src/pushift/*.py``, ``demos/*.py`` or ``bench/*.py``.  The package's
``__init__.py``, import statements and the name's own ``def``/``class`` line
do not count, so a function that only its unit tests call is flagged.
"""

import ast
import importlib
import inspect
import io
import re
import tokenize
from pathlib import Path

import pushift

ROOT = Path(__file__).resolve().parent.parent


def used_names(path):
    """NAME tokens of ``path`` outside import statements and def/class names."""
    names = set()
    line, previous = [], None
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if line and line[0] not in ("import", "from"):
                names.update(line)
            line, previous = [], None
        elif tok.type == tokenize.NAME:
            if previous not in ("def", "class"):
                line.append(tok.string)
            previous = tok.string
    return names


MODULES = sorted((ROOT / "src" / "pushift").glob("*.py"))


def used_anywhere():
    files = [p for p in MODULES if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    return set().union(*(used_names(p) for p in files))


def defined_callables():
    """(qualified name, name) of each public module-level function and public method or property."""
    for path in MODULES:
        mod = importlib.import_module(f"pushift.{path.stem}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{path.stem}.{name}", name
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    member = inspect.isfunction(raw) or isinstance(raw, (property, staticmethod, classmethod))
                    if member and not attr.startswith("_"):
                        yield f"{path.stem}.{name}.{attr}", attr


def test_every_export_has_a_caller():
    exported = {n for n, obj in vars(pushift).items() if not n.startswith("_") and not inspect.ismodule(obj)}
    assert sorted(exported - used_anywhere()) == []


def test_every_public_function_and_method_has_a_caller():
    used = used_anywhere()
    assert sorted(qual for qual, name in defined_callables() if name not in used) == []


def bench_references():
    """``(module, name)`` for each ``module.name`` in ``bench/*.py`` whose module came from ``from pushift import``."""
    refs = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "pushift"
            for alias in node.names
        }
        refs.update(
            (node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
        )
    return refs


def test_every_name_the_benchmark_reaches_exists():
    """A removal the benchmark still calls fails here rather than in a benchmark run."""
    refs = bench_references()
    assert refs
    missing = [f"{mod}.{name}" for mod, name in sorted(refs)
               if not hasattr(importlib.import_module(f"pushift.{mod}"), name)]
    assert missing == []


def test_json_is_read_and_written_only_in_errors():
    """``errors.read_json`` / ``write_json`` are the one reader and writer; ``json.dumps`` may still hash."""
    banned = re.compile(r"\bjson\.(loads?|dump)\b|\ballow_nan\b|\bfrom json import\b")
    offenders = {
        p.name: [m.group() for m in banned.finditer(p.read_text())]
        for p in sorted((ROOT / "src" / "pushift").glob("*.py"))
        if p.name != "errors.py"
    }
    assert {name: found for name, found in offenders.items() if found} == {}
