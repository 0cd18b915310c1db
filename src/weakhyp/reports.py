"""Deterministic CSV and JSON emission: 17 significant digits everywhere."""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence


@dataclass(frozen=True)
class RowSource:
    """``count`` rows that ``make()`` yields as they are written: a sized
    iterable, so a table states its length without holding its rows."""

    count: int
    make: Callable[[], Iterator[Sequence[Any]]]

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[Sequence[Any]]:
        return self.make()


def format_number(x: Any) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, complex):
        return f"{format(x.real, '.17g')}{'+' if x.imag >= 0 else '-'}" \
               f"{format(abs(x.imag), '.17g')}j"
    return str(x)


def _record_format(types: tuple[type, ...]) -> Callable[[Sequence[Any]], str]:
    """One ``%`` format for the records whose entries have these types.

    ``%.17g`` writes a float as :func:`format_number` does, nan, inf and -0
    included, and ``%d`` an int; any other entry goes through
    :func:`format_number` first.
    """
    specs = ["%.17g" if issubclass(t, float) else "%d" if t is int else "%s"
             for t in types]
    line = ",".join(specs) + "\n"
    plain = [spec != "%s" for spec in specs]
    if all(plain):
        return lambda row: line % tuple(row)
    return lambda row: line % tuple(v if keep else format_number(v)
                                    for v, keep in zip(row, plain))


def write_csv(path: str | Path, header: Sequence[str],
              rows: Iterable[Sequence[Any]]) -> None:
    """Fixed column order, header row, newline-terminated records, written
    one by one as ``rows`` yields them.

    A record takes the format of the record before it while its entries
    have the same types, which is every record of a table whose columns
    each hold one type.
    """
    types: tuple[type, ...] = ()
    record = None
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            if len(row) != len(header):
                raise ValueError(
                    f"row width {len(row)} != header width {len(header)}")
            # type by type: a tuple of types per row raised the peak RSS
            if record is None or not all(map(is_, map(type, row), types)):
                types = tuple(map(type, row))
                record = _record_format(types)
            handle.write(record(row))


def _json_render(value: Any, indent: int) -> str:
    pad = " " * indent
    if isinstance(value, Mapping):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_json_render(value[k], indent + 2)}'
            for k in value)
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        items = ",\n".join(f"{pad}  {_json_render(v, indent + 2)}"
                           for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value != value:
            return '"nan"'
        if value in (float("inf"), float("-inf")):
            return f'"{value}"'
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, complex):
        return f'"{format_number(value)}"'
    return '"' + str(value).replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_json(path: str | Path, payload: Mapping) -> None:
    """Deterministic JSON with the same 17-digit float policy as the CSVs.

    Key order is insertion order of the payload the driver built, which is
    itself deterministic.
    """
    Path(path).write_text(_json_render(payload, 0) + "\n", encoding="utf-8")
