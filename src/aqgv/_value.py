"""The base of aqgv's value classes.

A value class names its compared fields in ``_fields``, gives them (and
any derived attributes) slots, and sets them in its own ``__init__``, after
its checks, by one call of the base's ``_set``, as it fills a cache slot
later: ``_set`` is the one writer past the refusal of ``__setattr__``.
The base makes two values equal when they are of one class with equal
fields (``!=`` is Python's inverse of that), hashes them by those fields
and shows them as ``Name(field=value, ...)``, refuses assignment and
deletion, and pickles and copies a value by calling its class on its
fields, so a copy is checked as the original was.

Nothing here generates code, so a cold command compiles no methods and
imports neither ``inspect`` nor ``ast``, as the standard library's
generated value classes would.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    __slots__ = ()
    _fields: tuple[str, ...]   # each subclass's compared fields, in the order its __init__ takes them

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)   # one field: the value itself, several: their tuple

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def _set(self, **attributes) -> None:
        """Set each named slot, past the refusal of ``__setattr__``."""
        for name, value in attributes.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)
