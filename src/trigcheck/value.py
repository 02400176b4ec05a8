"""`Value`, the `__slots__` base of the immutable records. A subclass's fields,
its `__slots__` or those it names in `_fields`, give equality by class and field
tuple, the hash of that tuple, the repr, and the pickled form (the class called
on them). `__init__` sets one value per slot, in slot order; none can change after it."""

from operator import attrgetter


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls._fields or cls.__slots__
        cls._values = attrgetter(*cls._fields)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values) -> None:
        if len(values) != len(self._setters):
            raise TypeError(f"{type(self).__qualname__} takes {len(self._setters)} values, "
                            f"got {len(values)}")
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
