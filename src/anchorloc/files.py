"""The package's file I/O.

Every file the package writes goes through :func:`write_atomically` (whole or
not at all, text as UTF-8), INI and CSV text through :func:`write_ini` and
:func:`write_csv`; :func:`read_lines` and :func:`read_ini` read text as UTF-8.
:func:`fmt` writes a number so that reading it back gives the same number, and
:func:`encodable` tells whether a name can be written at all.
"""

from __future__ import annotations

import configparser
import os

from .errors import InvalidSpecError, ParseError


def encodable(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8, as every file here is written; only
    a str that holds a lone surrogate ('\\ud800'-'\\udfff') does not."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def fmt(x) -> str:
    """An int as it is, else 17 significant digits, which round-trip a double exactly."""
    return str(x) if isinstance(x, int) else format(float(x), ".17g")


def write_atomically(path, data: bytes | str) -> None:
    """The one file writer: ``data`` (text as UTF-8) goes to a temporary file beside
    ``path``, flushed to disk and then moved over ``path``, so a write that fails
    midway leaves whatever was at ``path`` as it was, and no temporary file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_ini(path, sections) -> None:
    """``{section: {key: value}}`` as ``[section]`` then ``key = value`` lines, in the
    order given, with a blank line between sections."""
    write_atomically(path, "\n".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                                     for sec, keys in sections.items()))


def write_csv(path, header, rows) -> None:
    """A line of ``header``'s names, then one per row of its values through :func:`fmt`."""
    lines = [header, *(map(fmt, row) for row in rows)]
    write_atomically(path, "".join(",".join(line) + "\n" for line in lines))


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; one that does not decode is ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not a text file: {err}") from None


def read_ini(path, known) -> dict[str, dict[str, str]]:
    """{section: {key: value}} of a UTF-8 INI file (configparser; no interpolation, no
    ``[DEFAULT]``); one it rejects, or with a key outside ``known`` ({section: keys}),
    is InvalidSpecError."""
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:  # a missing file is OSError; read skips it
        parser.read_file(read_lines(path))
    except configparser.Error as err:  # whose own message spans lines
        line = getattr(err, "lineno", None) or err.errors[0][0]
        raise InvalidSpecError(f"{path}, line {line}: malformed ({type(err).__name__})") from None
    values = {sec: dict(parser.items(sec)) for sec in parser.sections()}
    for sec in values:
        if sec not in known:
            raise InvalidSpecError(f"{path}: unknown section [{sec}]")
        for key in values[sec]:
            if key not in known[sec]:
                raise InvalidSpecError(f"{path}: unknown key [{sec}] {key}")
    return values
