"""Base class of the package's immutable value types."""


class Frozen:
    """Fields in ``__slots__``, set once by ``object.__setattr__`` in ``__init__``.

    Equal only to the same type with equal fields; hashed, printed, copied
    and pickled by the fields; assignment and deletion raise AttributeError.
    A slot whose name starts with ``_`` is private: it is not a field, so
    it takes no part in equality, hashing, printing, copying or pickling,
    and a copy or an unpickled value leaves it unset.
    """

    __slots__ = ()

    def _names(self) -> list[str]:
        return [name for name in self.__slots__ if not name.startswith("_")]

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._names())

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names())
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
