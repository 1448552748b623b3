"""Record, the base of the value classes, apart from exactalg so that a module
needing only value classes (exponents, on the `poincare` path) loads no
`fractions`."""


class Record:
    """Base of the package's value classes, in place of frozen dataclasses.

    A subclass's annotated names are its fields, in order; a class attribute
    of the same name is a default.  Instances are built positionally or by
    keyword, then `__post_init__` may normalize fields via object.__setattr__.
    They equal same-class instances with equal fields, hash by their fields
    and refuse assignment.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            cls = type(self)
            given = {**dict(zip(fields, args)), **kwargs}
            if (len(given) < len(args) + len(kwargs) or not given.keys() <= set(fields)
                    or not all(f in given or hasattr(cls, f) for f in fields)):
                raise TypeError(f"{cls.__name__}() takes the fields {fields}")
            args = [given[f] if f in given else getattr(cls, f) for f in fields]
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(map(repr, self._values()))})"
