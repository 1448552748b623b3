"""The JSON writer of runs that read no input file, so that they load no `json`.

`dumps(obj, indent)` gives the text of `json.dumps(obj, indent=indent,
sort_keys=True)` for dicts with str keys, lists, tuples, str, int, bool and
None; `json.dumps` is its test oracle.  A run that reads a file has `json`
loaded and writes with it.
"""

_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r",
            "\t": "\\t"}


def _quote(s: str) -> str:
    """s as an ASCII JSON string: printable ASCII kept, the rest escaped as
    `json` escapes it (astral characters as a UTF-16 surrogate pair)."""
    if not (s.isascii() and s.isprintable()) or '"' in s or "\\" in s:
        out = []
        for c in s:
            n = ord(c)
            if c in _ESCAPES:
                c = _ESCAPES[c]
            elif n > 0xFFFF:
                n -= 0x10000
                c = f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"
            elif not 0x20 <= n < 0x7F:
                c = f"\\u{n:04x}"
            out.append(c)
        s = "".join(out)
    return f'"{s}"'


def dumps(obj, indent: int | None = None, _pad: str = "\n") -> str:
    """The JSON text of obj, keys sorted; with indent, one item a line."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = None if indent is None else _pad + " " * indent
    if isinstance(obj, dict):
        brackets = "{}"
        items = [f"{_quote(key)}: {dumps(obj[key], indent, inner)}" for key in sorted(obj)]
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        items = [dumps(item, indent, inner) for item in obj]
    else:
        raise TypeError(f"cannot write {type(obj).__name__} as JSON")
    if not items:
        return brackets
    if inner is None:
        return brackets[0] + ", ".join(items) + brackets[1]
    return brackets[0] + inner + ("," + inner).join(items) + _pad + brackets[1]
