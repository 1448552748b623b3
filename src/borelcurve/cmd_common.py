"""What every `cmd_<subcommand>` module shares.  None imports `borelcurve.cli`:
under `python -m borelcurve.cli` that file is `__main__`, and importing it by
name would compile and run it a second time."""

import io
import json

from .errors import InputError, ascii_int


def _sha256(data: bytes) -> str:
    # Only runs that read input files need it.  The builtin module costs a
    # tenth of `hashlib`, which loads OpenSSL's `_hashlib` first.
    try:
        from _sha256 import sha256  # Python <= 3.11
    except ImportError:
        try:
            from _sha2 import sha256  # Python >= 3.12
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _load_json(inputs: dict, name: str, path: str) -> dict:
    """Parse the JSON file at path, read once; inputs[name] records the path and the
    sha256 of the bytes parsed, which decode as a text-mode UTF-8 read decodes them."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    inputs[name] = {"path": path, "sha256": _sha256(data)}
    try:
        return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # syntax, UTF-8, int digits, nesting depth
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _report(subcommand: str, options: dict, inputs: dict, result: dict,
            max_degree: int | None) -> dict:
    return {
        "command": subcommand,
        "options": options,
        "inputs": inputs,
        "result": result,
        "max_degree": max_degree,
        "exact_arithmetic": True,
    }


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [ascii_int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad {what} list {text!r}: expected comma-separated integers") from exc
