"""Record classes without code generation at import.

`record` stands in for `dataclasses.dataclass` on the classes of this
package.  The stdlib decorator compiles every method it writes with `exec`
when the class is created, about a millisecond per frozen class, which
every cold `jsm` process paid for 33 classes.  `record` registers the
fields with `dataclass` itself (metadata only, so `dataclasses.fields`,
`replace` and `is_dataclass` work as before) and installs `__init__`,
`__repr__` and `__eq__`, and for a frozen class `__hash__`, `__setattr__`
and `__delattr__`, as closures over the field names.  They do what the
generated methods do: the same arguments, defaults and `__post_init__`
call, the same repr text, equality and hash on the tuple of the fields,
and `FrozenInstanceError` on assignment.  As with `dataclass`, a method
the class body defines is kept; a non-frozen class is unhashable unless
its body defines `__hash__`.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from operator import attrgetter


def record(cls=None, /, *, frozen: bool = False):
    """`@record` or `@record(frozen=True)`, in place of `@dataclass`."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    own = cls.__dict__
    class_hash = own.get("__hash__", MISSING)
    explicit_hash = not (class_hash is MISSING or
                         (class_hash is None and "__eq__" in own))
    if cls.__doc__ is None:     # else dataclass builds one with inspect
        cls.__doc__ = f"{cls.__name__}({', '.join(cls.__annotations__)})"
    dataclass(cls, init=False, repr=False, eq=False)
    fs = fields(cls)
    names = tuple(f.name for f in fs)
    if len(names) > 1:
        values = attrgetter(*names)
    elif names:
        one = attrgetter(names[0])
        values = lambda self: (one(self),)  # noqa: E731
    else:
        values = lambda self: ()  # noqa: E731
    methods = {"__init__": _init(cls, fs, names,
                                 object.__setattr__ if frozen else setattr),
               "__repr__": _repr(names, values),
               "__eq__": _eq(values)}
    if frozen:
        methods["__setattr__"], methods["__delattr__"] = _frozen(cls, names)
        if not explicit_hash:
            methods["__hash__"] = lambda self: hash(values(self))
    elif not explicit_hash:
        methods["__hash__"] = None
    for name, fn in methods.items():
        if name == "__hash__" or name not in own:
            if fn is not None:
                fn.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, fn)
    return cls


def _init(cls, fs, names, store):
    n = len(names)
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if len(args) > n:
            raise TypeError(f"{type(self).__name__}() takes {n} arguments, "
                            f"{len(args)} given")
        if kwargs or len(args) < n:
            given = dict(zip(names, args))
            for k, v in kwargs.items():
                if k not in names or k in given:
                    raise TypeError(f"{type(self).__name__}() got an "
                                    f"unexpected or repeated argument {k!r}")
                given[k] = v
            args = []
            for f in fs:
                if f.name in given:
                    args.append(given[f.name])
                elif f.default is not MISSING:
                    args.append(f.default)
                elif f.default_factory is not MISSING:
                    args.append(f.default_factory())
                else:
                    raise TypeError(f"{type(self).__name__}() missing "
                                    f"argument {f.name!r}")
        for k, v in zip(names, args):
            store(self, k, v)
        if post_init:
            self.__post_init__()
    return __init__


def _repr(names, values):
    def __repr__(self):
        parts = ", ".join(map("{}={!r}".format, names, values(self)))
        return f"{type(self).__qualname__}({parts})"
    return __repr__


def _eq(values):
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented
    return __eq__


def _frozen(cls, names):
    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)
    return __setattr__, __delattr__
