"""Exception types shared across the package, and the one JSON reader and writer.

The CLI maps these onto distinct exit codes, so keep the taxonomy small:
configuration problems, data problems, diverged optimization, and
degenerate prior estimation.  ``read_json`` and ``write_json`` are the only
places a JSON document is decoded or written.  The ``json_*`` readers check
one decoded JSON value against its type and raise ``error`` (a ``DataError``
for documents, a ``ConfigError`` for config fields) naming ``what``: a value
of the wrong JSON type is refused, never converted.
"""

import json
import math
from reprlib import repr as show


class ConfigError(ValueError):
    """Invalid configuration value or malformed config document."""


class DataError(ValueError):
    """Malformed or insufficient input data (files or arrays)."""


class TrainingDiverged(RuntimeError):
    """Optimization produced a non-finite objective or parameters."""


class DegeneratePriorError(RuntimeError):
    """No admissible thresholding hypothesis exists (gamma_bar >= 1).

    Raised instead of silently returning a fabricated estimate when the
    sample sizes are too small for the confidence radius.
    """

    def __init__(self, gamma_bar, n_pos, n_unl):
        self.gamma_bar = float(gamma_bar)
        self.n_pos = int(n_pos)
        self.n_unl = int(n_unl)
        super().__init__(
            f"degenerate prior estimation: gamma_bar={gamma_bar:.4f} >= 1 "
            f"(n_pos={n_pos}, n_unl={n_unl}); no threshold hypothesis is admissible"
        )


def read_json(path):
    """The decoded document at ``path``; a file that cannot be read or decoded raises DataError."""
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read())
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8, or an over-long integer
        raise DataError(f"cannot read {path}: {exc}") from exc


def write_json(path, doc, indent=None) -> None:
    """Write strict, key-sorted JSON: a NaN or infinity raises before the file is opened."""
    text = json.dumps(doc, sort_keys=True, indent=indent, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def json_object(value, what, error=DataError) -> dict:
    if not isinstance(value, dict):
        raise error(f"{what} must be a JSON object, got {show(value)}")
    return value


def json_number(value, what, lo=-math.inf, hi=math.inf, error=DataError) -> float:
    """A finite JSON number in [lo, hi], never a bool, as a float."""
    try:
        x = float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an integer beyond the float range
        x = math.nan
    if not (math.isfinite(x) and lo <= x <= hi):
        span = f" in [{lo:g}, {hi:g}]" if math.isfinite(lo) or math.isfinite(hi) else ""
        raise error(f"{what} must be a finite number{span}, got {show(value)}")
    return x


def json_int(value, what, error=DataError) -> int:
    """A JSON integer >= 0, never a bool."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise error(f"{what} must be a non-negative integer, got {show(value)}")
    return value


def json_bool(value, what, error=DataError) -> bool:
    if not isinstance(value, bool):
        raise error(f"{what} must be true or false, got {show(value)}")
    return value


def json_str(value, what, error=DataError) -> str:
    if not isinstance(value, str):
        raise error(f"{what} must be a string, got {show(value)}")
    return value


def json_array(value, what, item, error=DataError) -> list:
    """A JSON array whose every entry ``item`` (one of these readers) accepts."""
    if not isinstance(value, list):
        raise error(f"{what} must be an array, got {show(value)}")
    entry = f"an entry of {what}"
    return [item(v, entry, error=error) for v in value]
