"""The immutable value record behind kronlab's small result types.

A subclass names its fields in ``__slots__`` and may check them in
``__post_init__``.  It is built positionally or by field name, compares
and hashes by its field values (instances of different classes are never
equal), prints as ``Name(field=value, ...)`` and refuses assignment.

The records are not dataclasses: importing ``dataclasses`` pulls in
``inspect`` and its chain, and each frozen dataclass builds its methods
with ``exec``, which together cost a fresh process milliseconds before
any work starts.
"""


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if len(args) != len(names) or kwargs:
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
