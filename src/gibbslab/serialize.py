"""Deterministic JSON/CSV serialization and the JSON config loader.

Numbers are rendered at fixed significant-digit counts: 17 in JSON (so
doubles round-trip exactly) and 12 in CSV (readability).  Output is a
pure function of the value tree, so two runs that compute the same
numbers produce byte-identical files.

Schemas:
  * JSON: objects with string keys, arrays, strings, integers, booleans,
    null and finite floats in scientific notation; numpy scalars and
    arrays render as their Python values;
  * CSV: a header row, then one row per record, all of one length,
    rendered column by column, one formatter per kind of cell; None is the
    empty cell, booleans are true/false and non-finite floats nan, inf or
    -inf.

A value that cannot be rendered (a non-finite float in JSON, a
non-string key, an unknown type) raises InvalidInput, a numerical error,
and a file is opened only once its text is rendered.  load_json raises
ConfigInvalid: the config's schema is checked by the CLI against its
defaults.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigInvalid, InvalidInput, require_count, require_real

JSON_SIG = 17
CSV_SIG = 12
_CSV_FLOAT = f".{CSV_SIG - 1}e"
# the most rows whose cell text is held at once; more write no faster
CSV_BLOCK_ROWS = 1024


def format_float(value: float, sig: int = JSON_SIG) -> str:
    """Scientific notation with the given count of significant digits."""
    value = float(require_real("value", value))
    require_count("sig", sig, ">=", 1)
    return f"{value:.{sig - 1}e}"


def _render(obj: object, indent: int) -> str:
    pad = " " * indent
    child = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise InvalidInput(f"JSON object keys must be strings, got {key!r}")
            items.append(f"{child}{json.dumps(key)}: {_render(value, indent + 2)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{child}{_render(value, indent + 2)}" for value in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise InvalidInput(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_json(obj: object) -> str:
    """Deterministic JSON text with JSON_SIG-digit floats."""
    return _render(obj, 0) + "\n"


def write_json(path: str, obj: object) -> None:
    text = dumps_json(obj)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


# one formatter per kind of cell, run over every cell of its kind in a
# column: a float as format_float would at CSV_SIG digits, or nan, inf, -inf
_FORMATS = (
    (str, list),
    ((bool, np.bool_), lambda cells: ["true" if cell else "false" for cell in cells]),
    ((int, np.integer), lambda cells: [str(int(cell)) for cell in cells]),
    ((float, np.floating, type(None)),
     lambda cells: ["" if cell is None else format(float(cell), _CSV_FLOAT) for cell in cells]),
    (object, lambda cells: list(map(str, cells))),
)


def _column(cells: Sequence[object]) -> list[str]:
    """One column's text, each kind of cell in it formatted at once."""
    by_type = {cls: next(form for kind, form in _FORMATS if issubclass(cls, kind))
               for cls in set(map(type, cells))}
    formats = set(by_type.values())
    if len(formats) == 1:
        return formats.pop()(cells)
    text = [""] * len(cells)
    for form in formats:
        at = [i for i, cell in enumerate(cells) if by_type[type(cell)] is form]
        for i, cell in zip(at, form([cells[i] for i in at])):
            text[i] = cell
    return text


def dumps_csv(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """CSV text with 12-significant-digit floats and a header row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(header))
    rows = iter(rows)
    while block := list(itertools.islice(rows, CSV_BLOCK_ROWS)):
        writer.writerows(zip(*(_column(cells) for cells in zip(*block, strict=True))))
    return buffer.getvalue()


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    text = dumps_csv(header, rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read {path}: {exc}", path="") from exc
    except ValueError as exc:  # also non-UTF-8 bytes and over-long integers
        raise ConfigInvalid(f"{path} is not valid JSON: {exc}", path="") from exc
