"""Frozen value records, made without the standard library's dataclass
module.

record turns a class whose body annotates its fields into a frozen
value class, as @dataclass(frozen=True) does: __init__ takes the fields
in annotation order, with the class attributes as defaults, and calls
__post_init__ when the class has one; assigning or deleting an
attribute raises FrozenInstanceError; repr reads Name(field=value, ...).
With eq (the default), instances of one class compare and hash by their
field tuples, unless the class defines its own __hash__; with
eq=False they compare and hash by identity.

__init__, __eq__ and __hash__ are compiled once per class from source
that names each field, so a record is built as fast as a dataclass
instance. The dataclass module imports inspect, ast, dis and tokenize,
which every command-line request would load at its start.

replace(record, **changes) copies a record with some fields changed and
runs __post_init__ again; it is also each record's __replace__, so
copy.replace works on Python 3.13 and later. Records pickle and copy
by their instance dict.
"""


class FrozenInstanceError(AttributeError):
    """An assignment to a field of a record."""


def _frozen(self, name, *_value):
    raise FrozenInstanceError("cannot assign to field %r" % (name,))


def _repr(self):
    fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields)
    return "%s(%s)" % (type(self).__qualname__, fields)


def replace(record, /, **changes):
    """A copy of record with the given fields changed, built and
    validated as a new record is."""
    for name in record._fields:
        changes.setdefault(name, getattr(record, name))
    return type(record)(**changes)


def record(cls=None, *, eq=True):
    """Make cls a frozen record; usable as @record or @record(eq=False)."""
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    names = tuple(cls.__annotations__)
    own = vars(cls)
    # a field with a class attribute takes it as its default
    params = "".join(
        ", %s=_own[%r]" % (name, name) if name in own else ", " + name for name in names
    )
    lines = ["def __init__(self%s):" % (params,)]
    lines += ["    _set(self, %r, %s)" % (name, name) for name in names]
    lines.append("    self.__post_init__()" if hasattr(cls, "__post_init__") else "    pass")
    if eq:
        mine, theirs = ("(%s)" % "".join("%s.%s, " % (who, name) for name in names)
                        for who in ("self", "other"))
        lines += [
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            "        return %s == %s" % (mine, theirs),
            "    return NotImplemented",
        ]
        if "__hash__" not in own:
            lines += ["def __hash__(self):", "    return hash(%s)" % (mine,)]
    space = {"_set": object.__setattr__, "_own": own}
    exec("\n".join(lines), space)
    for name in ("__init__", "__eq__", "__hash__"):
        if name in space:
            space[name].__qualname__ = "%s.%s" % (cls.__qualname__, name)
            setattr(cls, name, space[name])
    cls._fields = cls.__match_args__ = names
    cls.__repr__ = _repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls.__replace__ = replace
    return cls
