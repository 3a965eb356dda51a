"""Every name that ``pushift`` exports is used by the package, a demo or the benchmark.

A use is the name as a code token (not in a string, comment or docstring) in
``src/pushift/*.py``, ``demos/*.py`` or ``bench/*.py``.  The package's
``__init__.py``, import statements and the name's own ``def``/``class`` line
do not count, so a function that only its unit tests call is flagged.
"""

import inspect
import io
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


def test_every_export_has_a_caller():
    files = [p for p in sorted((ROOT / "src" / "pushift").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*(used_names(p) for p in files))
    exported = {n for n, obj in vars(pushift).items() if not n.startswith("_") and not inspect.ismodule(obj)}
    assert sorted(exported - used) == []
