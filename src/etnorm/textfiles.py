"""Reading the text files etnorm reads: opening, decoding, line numbers
and the form of every fault.

``open_text`` opens every file as UTF-8 and reads a byte that is not UTF-8
as a lone surrogate, so ``check_utf8`` can name the line that holds it
instead of the read failing somewhere in the file. A byte-order mark that
starts a file is skipped; none is written. A file that cannot be
opened is an OSError that reads ``<path>: <reason>``; a fault in a line
reads ``<file>:<line>: <fault>``.
"""

from __future__ import annotations

from importlib import resources


class ConfigError(ValueError):
    """Raised when a data or configuration file fails to parse."""


def open_text(path, mode: str = "r"):
    """``path`` opened as UTF-8 text. An OSError raised here keeps the type
    of the failure and reads ``<path>: <reason>``."""
    encoding = "utf-8-sig" if "r" in mode else "utf-8"
    try:
        return open(path, mode, encoding=encoding, errors="surrogateescape")
    except OSError as exc:
        raise type(exc)(f"{path}: {exc.strerror or exc}") from None


def check_utf8(text: str) -> str:
    """``text`` as ``open_text`` read it, or a UnicodeError if it held
    bytes that are not UTF-8."""
    if not text.isascii():
        try:
            text.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise UnicodeError(f"input is not valid UTF-8: {exc}") from None
    return text


def read_data(path, parse, bundled: str = ""):
    """``parse(line)`` for each line of the data file at ``path`` (the
    bundled file ``bundled`` when ``path`` is None) that is neither blank
    nor a ``#`` comment; the line comes without its line break. A line that
    is not UTF-8, or that ``parse`` refuses with a ValueError, raises
    ConfigError ``<file>:<line>: ...``."""
    if path is None:
        path, name = resources.files("etnorm.data").joinpath(bundled), bundled
    else:
        name = str(path)
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                line = check_utf8(line.rstrip("\n"))
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                record = parse(line)
            except ValueError as exc:
                raise ConfigError(f"{name}:{lineno}: {exc}") from None
            yield record
