"""The immutable value base the package's value classes share, QSeries and
CycNumber among them."""
import operator


class Record:
    """An immutable value whose fields are its class's __slots__.  It is built
    from the fields by position or by name, equals a record of the same type
    with equal fields, and hashes by its fields.  As __setattr__ refuses every
    assignment, the slots are stored through the class's _setters, also when
    copy and pickle rebuild a value from its fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = operator.attrgetter(*cls.__slots__)
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:
            try:
                args += tuple(kwargs.pop(name) for name in names[len(args):])
            except KeyError as err:
                raise TypeError(f"{type(self).__name__} misses the field {err}") from None
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for store, value in zip(self._setters, args):
            store(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return _rebuild, (type(self), *[getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        fields = self._fields
        return type(other) is type(self) and fields(self) == fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({shown})"


def _rebuild(cls, *fields):
    """The value of cls holding fields, stored without its __init__."""
    self = object.__new__(cls)
    Record.__init__(self, *fields)
    return self
