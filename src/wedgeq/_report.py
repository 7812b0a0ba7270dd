"""Deterministic report emission.

All floating-point output is rounded to 12 significant digits, formatted
locale-independently, with '\\n' line endings.  Byte-stable output for
identical inputs is a contract, not an accident.

JSON reports keep the layout of ``json.dumps(obj, indent=2)``: each
member on its own line, indented two spaces per level, members separated
by ``,``, ``": "`` after keys, ``{}`` and ``[]`` for empty containers,
and strings with json's ASCII escapes.  A float is written as the
shortest repr of its 12-significant-digit rounding, and a non-finite one
as ``null``.  Keys must be str.  One recursive emitter writes that layout
directly, because json's C encoder does not run when an indent is given.
CSV reports write floats with ``.12g`` and non-finite values as empty
cells, in the table and in the ``# key=value`` comment lines alike.

Table rows, in either format, are formatted a column at a time: a column
of finite floats by one ``%.12g`` call (the digits of ``.12g``), a column
of ints or of bools by one map, and any other column cell by cell, so
the text is the same as formatting each cell alone.
"""

import math
# json's own string encoder (its C version); it raises TypeError on a non-str key.
from json.encoder import encode_basestring_ascii as _quote

_INDENT = "  "


def round_sig(value: float) -> float:
    """Round to the 12-significant-digit emission precision."""
    return float(format(value, ".12g"))


def _scalar(value) -> str:
    """A JSON scalar: rounded float, string, null, boolean, integer or NumPy scalar."""
    if isinstance(value, float):  # repr(round_sig(value)), or null if non-finite
        if not math.isfinite(value):
            return "null"
        text = format(value, ".12g")
        if "e" in text:
            return repr(float(text))
        # Without an exponent the rounding lies in [1e-4, 1e12), where repr is
        # positional too and, the double being normal, gives back the same
        # digits (a decimal of up to 15 digits is the shortest repr of its
        # nearest double); it only adds ".0" to an integer.  With one, repr
        # may pick the other notation (exponents 12-15) or fewer digits
        # (subnormals), so it is asked.
        return text if "." in text else text + ".0"
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    item = getattr(value, "item", None)
    if item is not None:  # NumPy scalars
        return _scalar(item())
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


def _block(open_: str, members: list[str], close: str, nl: str) -> str:
    """Members one per line, one indent deeper than the line break nl."""
    if not members:
        return open_ + close
    inner = nl + _INDENT
    return open_ + inner + ("," + inner).join(members) + nl + close


def _members(obj: dict, nl: str) -> list[str]:
    """The '"key": value' members of a dict whose own line break is nl."""
    inner = nl + _INDENT
    return [f"{_quote(k)}: {_emit(v, inner)}" for k, v in obj.items()]


def _emit(obj, nl: str) -> str:
    """obj in the JSON layout; nl is the line break and indent of its own line."""
    if isinstance(obj, dict):
        return _block("{", _members(obj, nl), "}", nl)
    if isinstance(obj, (list, tuple)):
        inner = nl + _INDENT
        return _block("[", [_emit(v, inner) for v in obj], "]", nl)
    return _scalar(obj)


def _column(cells: tuple, scalar) -> list[str]:
    """The texts of one table column: scalar (_scalar or format_cell) of each cell.

    A column whose cells are all of one type among float, int and bool is
    formatted in one pass; any other column goes cell by cell.
    """
    kinds = set(map(type, cells))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float:
        # '%' formats a float with the digits of format(x, '.12g'); a
        # non-finite cell shows as the 'n' of inf or nan.
        joined = ("%.12g\n" * len(cells))[:-1] % cells
        if "n" not in joined:
            texts = joined.split("\n")
            if scalar is format_cell:
                return texts
            # JSON: the .12g text is _scalar's unless it has an exponent or no point.
            return [text if "." in text and "e" not in text else scalar(cell)
                    for text, cell in zip(texts, cells)]
    elif kind is int:
        return list(map(int.__repr__, cells))
    elif kind is bool:
        return ["true" if cell else "false" for cell in cells]
    return list(map(scalar, cells))


def _formatted_rows(rows, scalar):
    """Each row's cell texts, formatted a column at a time."""
    return zip(*[_column(cells, scalar) for cells in zip(*rows, strict=True)])


def _table(header, rows, nl: str) -> str:
    """Rows as a list of {header: cell} objects, each filled into one row template."""
    inner = nl + _INDENT
    names = [_quote(name).replace("%", "%%") + ": %s" for name in header]
    template = _block("{", names, "}", inner)
    return _block("[", [template % row for row in _formatted_rows(rows, _scalar)], "]", nl)


def render_json(payload, table=None) -> str:
    """The JSON report of payload.

    table, if given, is (header, rows) of a table command: its rows follow
    the payload's keys as ``"rows": [{header[0]: row[0], ...}, ...]``.  The
    payload is then a dict, the header names are distinct and each row
    holds one scalar per name.
    """
    if table is None:
        return _emit(payload, "\n") + "\n"
    members = _members(payload, "\n")
    members.append('"rows": ' + _table(*table, "\n" + _INDENT))
    return _block("{", members, "}", "\n") + "\n"


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            return ""
        return format(value, ".12g")
    return str(value)


def render_csv(header, rows, comments=()) -> str:
    """The CSV report: a '# key=value' line per (key, value) pair of comments,
    the value formatted as a cell, then the header and the rows."""
    lines = [f"# {key}={format_cell(value)}" for key, value in comments]
    lines.append(",".join(header))
    lines.extend(map(",".join, _formatted_rows(rows, format_cell)))
    return "\n".join(lines) + "\n"
