"""Exception types, and the base of the value records, shared across the package."""

from operator import attrgetter

__all__ = ["QuiverError", "ParseError", "TruncationOverflowError", "InternalInvariantError"]


class QuiverError(ValueError):
    """Invalid input: malformed quiver, path, table, or request."""


class ParseError(QuiverError):
    """Syntax or semantic error in quiver DSL text, with position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class TruncationOverflowError(QuiverError):
    """Path enumeration exceeded the configured cap."""


class InternalInvariantError(RuntimeError):
    """A structural guarantee failed. This signals a bug, not bad input."""


class _Record:
    """A frozen value record, built without generating code: a subclass's
    annotated names are its fields, in order, and a class attribute of one is
    its default.  ``__init__`` stores them, then runs ``__post_init__``; ``==``,
    ``hash`` and the repr read all but the ``hidden`` names.  Nothing may be set
    or deleted.  A class that a job builds or hashes often writes its own."""

    def __init_subclass__(cls, hidden: tuple[str, ...] = ()):
        names = cls._fields = tuple(vars(cls).get("__annotations__", ()))
        cls._defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
        cls._shown = tuple(name for name in names if name not in hidden)
        if cls._shown:  # one field's value is its own key, more fields' a tuple
            cls._key = attrgetter(*cls._shown)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):  # keywords, defaults or a wrong call
            values = {**self._defaults, **dict(zip(names, args)), **kwargs}
            if args[len(names):] or kwargs.keys() - names[len(args):] or len(values) < len(names):
                raise TypeError(f"{type(self).__name__}() takes the fields {names}")
            args = map(values.__getitem__, names)
        self.__dict__.update(dict(zip(names, args)))  # from a dict, reads stay fast
        self.__post_init__()

    def __post_init__(self):
        """Each constructor call runs the checks of a class that makes any."""

    def __eq__(self, other):
        return (self._key(self) == self._key(other) if other.__class__ is self.__class__
                else NotImplemented)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r} cannot change")

    __delattr__ = __setattr__


def _of_rows(cls, **fields):
    """An instance made from fields known to be valid, skipping its constructor's checks."""
    out = object.__new__(cls)
    out.__dict__.update(fields)  # as cached_property does, past the frozen __setattr__
    return out
