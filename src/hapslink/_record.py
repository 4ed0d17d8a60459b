"""Value records: the small immutable classes hapslink passes around.

A Record subclass lists its fields as annotated class attributes, in
order, with a default after the annotation where it has one. They are
read once, when the subclass is created, and the subclass gets:

* an __init__ that takes the fields positionally or by name, applies
  number() to each field annotated float or int, with the field's range
  where it declares one (Annotated[float, (low, high)]), then calls the
  class's __post_init__, where its other checks live;
* refusal of attribute assignment (AttributeError);
* __eq__ and __hash__ over the fields, between records of one class;
* a repr that names each field.

replace() copies a record with some fields changed, through __init__,
so the class's checks run again. An attribute set in __post_init__
(with object.__setattr__) that is not annotated is no field: it is left
out of __init__, comparison, hashing and the repr.
"""

import math
from typing import Annotated, get_origin

_REQUIRED = object()


class Above(float):
    """An open lower end of a range: (Above(0.0), high) holds no 0."""


POSITIVE = (Above(0.0), math.inf)


def number(name, value, integer=False, error=ValueError, bounds=None):
    """value if it is a finite int or float, whole when integer (then as
    an int) and inside the range bounds, a (low, high) pair, when given;
    else an error (a ValueError class) naming name. Each end is closed
    but an Above low and an infinite high, which no finite value reaches."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past the float range
        raise error(f"{name} must be finite, got an int of {value.bit_length()} bits") from None
    if not finite:
        raise error(f"{name} must be finite, got {value}")
    if integer and value != int(value):
        raise error(f"{name} must be an integer, got {value!r}")
    if bounds is not None:
        low, high = bounds
        opened = low.__class__ is Above
        if (value <= low if opened else value < low) or value > high:
            raise error(f"{name} = {value!r} is outside {'(' if opened else '['}{low:g}, "
                        f"{high:g}{')' if high == math.inf else ']'}")
    return int(value) if integer else value


class Record:
    _fields = ()    # field names, in order
    _defaults = {}  # field name -> default, or _REQUIRED
    _given = {}     # the fields that have a default -> that default
    _numbers = ()   # (name, name after _tag, whether an int, range) per float or int field
    _bounds = {}    # field name -> its declared (low, high)
    _tag, _error = "", ValueError  # number()'s refusals: prefix and class

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        defaults = dict(cls._defaults)
        numbers = {name: integer for name, _, integer, _ in cls._numbers}
        bounds = dict(cls._bounds)
        for name, kind in cls.__dict__.get("__annotations__", {}).items():
            defaults[name] = cls.__dict__.get(name, _REQUIRED)
            if get_origin(kind) is Annotated:  # a number with its range
                kind, bounds[name] = kind.__origin__, kind.__metadata__[0]
            if kind is float or kind is int:
                numbers[name] = kind is int
        cls._defaults = defaults
        cls._fields = tuple(defaults)
        cls._given = {k: v for k, v in defaults.items() if v is not _REQUIRED}
        cls._bounds = bounds
        cls._numbers = tuple((name, cls._tag + name, integer, bounds.get(name))
                             for name, integer in numbers.items())

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        values = self.__dict__
        if len(args) + len(kwargs) < len(fields):
            values.update(cls._given)
        if args:
            if len(args) > len(fields):
                raise TypeError(_misfit(cls, args, kwargs))
            values.update(zip(fields, args))
        if kwargs:  # each a field, and none already given by position
            if not (kwargs.keys() <= cls._defaults.keys()
                    and kwargs.keys().isdisjoint(fields[:len(args)])):
                raise TypeError(_misfit(cls, args, kwargs))
            values.update(kwargs)
        if len(values) < len(fields):  # a field with no default not given
            raise TypeError(_misfit(cls, args, kwargs))
        for name, label, integer, bounds in cls._numbers:
            values[name] = number(label, values[name], integer, cls._error, bounds)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        d = self.__dict__
        return tuple([d[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        cells = ", ".join(f"{name}={value!r}" for name, value in
                          zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({cells})"


def _misfit(cls, args, kwargs):
    """Why args and kwargs do not give each of cls's fields once."""
    name, fields = cls.__name__, cls._fields
    if len(args) > len(fields):
        return f"{name}() takes {len(fields)} fields, got {len(args)} arguments"
    for key in kwargs:
        if key not in cls._defaults:
            return f"{name}() has no field {key!r}"
        if key in fields[:len(args)]:
            return f"{name}() got field {key!r} twice"
    missing = next(f for f in fields[len(args):]
                   if f not in kwargs and f not in cls._given)
    return f"{name}() needs field {missing!r}"


def replace(record, /, **changes):
    """A copy of record with the named fields changed; the class's checks
    run on the copy."""
    values = dict(zip(record._fields, record._values()))
    values.update(changes)
    return type(record)(**values)
