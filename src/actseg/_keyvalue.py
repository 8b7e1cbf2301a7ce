"""The key=value syntax of `--config` and geometry files: one pair per line,
blank lines and `#` comments skipped, errors raised as `path:line: ...`."""

import math

from .timeline import _text_lines


def _strict(kind):
    """kind (int or float) on ASCII text without `_`: 1_4 and ٨ are errors, not 14 and 8."""
    def parse(text: str):
        if "_" in text or not text.isascii():
            raise ValueError(f"invalid {kind.__name__} value: {text!r}")
        return kind(text)
    parse.__name__ = kind.__name__  # argparse names the type in its error message
    return parse


integer, real = _strict(int), _strict(float)


def finite_float(text: str) -> float:
    """real(text), rejecting NaN and infinities."""
    value = real(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def unit_float(text: str) -> float:
    """real(text) in [0, 1], as a position in a hand CSV."""
    if not 0.0 <= (value := real(text)) <= 1.0:
        raise ValueError(text)
    return value


def boolean(text: str) -> bool:
    """1/0, true/false, yes/no or on/off, in any case; anything else raises KeyError."""
    return {"1": True, "true": True, "yes": True, "on": True,
            "0": False, "false": False, "no": False, "off": False}[text.lower()]


def read(path, parsers: dict, kind: str) -> dict:
    """{key: parsers[key](value)} for each key the file sets; a line without
    `=`, an unknown or repeated key, a value its parser rejects (ValueError
    or KeyError), or bytes that are not UTF-8 are a ValueError naming the
    file and line."""
    values = {}
    for ln, line in _text_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, raw = (part.strip() for part in line.partition("="))
        if not eq:
            raise ValueError(f"{path}:{ln}: expected key=value, got {line!r}")
        if key not in parsers:
            raise ValueError(f"{path}:{ln}: unknown {kind} key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{ln}: {kind} key {key!r} set twice")
        try:
            values[key] = parsers[key](raw)
        except (KeyError, ValueError):
            raise ValueError(f"{path}:{ln}: bad value for {key}: {raw!r}") from None
    return values
