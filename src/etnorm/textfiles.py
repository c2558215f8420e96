"""Reading the text files etnorm reads: opening, decoding, line numbers
and the form of every fault; and ``Record``, the base of every etnorm record.

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


class Record:
    """The base of every etnorm record, whose fields are the parameters of its
    ``__init__``: ``==`` compares the type and the fields, and the repr shows
    them. ``replace(**changes)`` builds a new record through ``__init__``, so
    its checks run again and nothing derived is carried over. A ``frozen=True``
    record refuses assignment, hashes by its fields and stores them with
    ``_fill(locals())``, in field order. (It needs no module: each one
    imported slows a cold start.)"""

    __slots__ = ()

    def __init_subclass__(cls, frozen=False):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        if frozen:
            cls.__setattr__ = cls.__delattr__ = cls._refuse
            cls.__hash__ = lambda self: hash(self._values())

    def _refuse(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _fill(self, values):
        self.__dict__.update({name: values[name] for name in self._fields})

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def replace(self, **changes):
        """A new record of this type, with ``changes`` to its fields."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    __replace__ = replace  # copy.replace, Python 3.13+


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


def ascii_number(parse):
    """``parse`` of a text that holds only ASCII and no ``_``: ``int`` and
    ``float`` would read ``4_0`` as 40 and the digits of other scripts."""
    def read(text: str):
        if "_" in text or not text.isascii():
            raise ValueError(f"not a number in ASCII digits: {text!r}")
        return parse(text)
    return read


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


def read_keyed(path, parse, bundled: str, key=str) -> dict:
    """``read_data`` of a file whose ``parse`` reads each line as ``(name, value)``:
    the values by ``key(name)``. A key that repeats is refused at its line."""
    seen = set()

    def entry(line: str) -> tuple:
        name, value = parse(line)
        if key(name) in seen:
            raise ValueError(f"repeated key {name!r}")
        seen.add(key(name))
        return key(name), value
    return dict(read_data(path, entry, bundled))
