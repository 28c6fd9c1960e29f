"""Frozen record classes, built without generated code.

``record`` gives a class what ``dataclasses.dataclass(frozen=True)`` gives
it, from the class's annotations in order: an ``__init__`` taking the
fields by position or keyword (a class attribute of a field's name is its
default) and then calling ``__post_init__`` when the class defines one;
``__eq__`` and ``__hash__`` over the field values, within one class;
``__repr__`` naming every field; and an AttributeError on assigning or
deleting any attribute.  The methods are closures over the field names, so
creating a class compiles nothing, where ``dataclasses`` compiles and
executes generated source per class.  An attribute without an
annotation that ``__post_init__`` sets with ``object.__setattr__`` is no
field: no argument, not compared, not shown.
"""

from __future__ import annotations


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    if tuple(defaults) != names[len(names) - len(defaults):]:
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with a default")
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        given = dict(zip(names, args))
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{cls.__qualname__}() takes the fields {', '.join(names) or 'none'}")
        given.update(kwargs)
        for name in names:
            if name not in given and name not in defaults:
                raise TypeError(f"{cls.__qualname__}() missing the field {name!r}")
            object.__setattr__(self, name, given[name] if name in given else defaults[name])
        if post_init:
            self.__post_init__()

    def values(self) -> tuple:
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other):
        return values(self) == values(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = lambda self: hash(values(self))
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    return cls
