"""The immutable value record that the package's small value classes share."""
import operator


class Record:
    """An immutable value whose fields are its class's __slots__.  It is built
    from the fields by position or by name, equals a record of the same type
    with equal fields, and hashes by its fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = operator.attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:
            try:
                args += tuple(kwargs.pop(name) for name in names[len(args):])
            except KeyError as err:
                raise TypeError(f"{type(self).__name__} misses the field {err}") from None
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not by setting slots
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        fields = self._fields
        return type(other) is type(self) and fields(self) == fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({shown})"
