"""Record classes, made without generating code: fields from annotations, methods as closures.

A record's fields are its string annotations in MRO order, less `ClassVar`s; a class
attribute is a field's default, and `field` makes a fresh one per instance.  A frozen
record hashes its fields and refuses assignment; a mutable one is unhashable.
"""

from operator import attrgetter

_MISSING = object()


class field:
    """A default made fresh for each instance by calling `default_factory`."""

    def __init__(self, *, default_factory):
        self.default_factory = default_factory


def record(*, frozen: bool = False):
    """The class decorator; it keeps any method the class defines itself."""
    return lambda cls: _install(cls, frozen)


def _install(cls: type, frozen: bool) -> type:
    # field -> default or _MISSING, in field order: the arguments merged into it keep that order
    template = {name: vars(owner).get(name, _MISSING) for owner in reversed(cls.__mro__)
                for name, note in vars(owner).get("__annotations__", {}).items()
                if not note.startswith("ClassVar")}
    names, get, post_init = tuple(template), attrgetter(*template), hasattr(cls, "__post_init__")
    required = {name for name, d in template.items() if d is _MISSING}
    factories = [(name, d.default_factory) for name, d in template.items() if type(d) is field]

    def __init__(self, *args, **kwargs):
        got = {**dict(zip(names, args)), **kwargs}
        values = {**template, **got}
        # too many positional arguments, or a repeated, unknown or missing field
        if required - got.keys() or len(got) < len(args) + len(kwargs) or len(values) > len(names):
            raise TypeError(f"{cls.__name__}() takes {names}, got {len(args)} and {list(kwargs)}")
        for name, make in factories:
            if name not in got:
                values[name] = make()
        object.__setattr__(self, "__dict__", values)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        return get(self) == get(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def refuse(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    methods = {"__init__": __init__, "__eq__": __eq__, "__repr__": __repr__, "__hash__": None}
    if frozen:
        methods.update(__setattr__=refuse, __delattr__=refuse, __hash__=lambda s: hash(get(s)))
    for name, method in methods.items():
        if name not in vars(cls):
            setattr(cls, name, method)
    cls._fields = names
    return cls


def replace(obj, **changes):
    """A new record of the same class, with its fields (and nothing else) copied, changed and checked anew."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})
