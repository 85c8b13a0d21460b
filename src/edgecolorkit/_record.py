"""The base of the package's immutable value records. Unlike dataclasses,
it generates no code per class, which keeps the package's import cheap."""


class Record:
    """Fields are the class's own annotations, in order. Construction by
    position or keyword, then __post_init__; equality and hash by field
    values within one class; a dataclass-style repr; no assignment or
    deletion. A subclass's own __init__ sets fields by object.__setattr__."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = dict(zip(names, args))
        values.update(kwargs)
        if len(values) != len(args) + len(kwargs) or values.keys() != set(names):
            raise TypeError(
                "%s() takes the fields (%s), got %d positional and %s by keyword"
                % (type(self).__name__, ", ".join(names), len(args), sorted(kwargs))
            )
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ("%s=%r" % (name, getattr(self, name)) for name in self._fields)
        return "%s(%s)" % (type(self).__qualname__, ", ".join(fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)
