"""Value equality and ``repr`` over a class's declared fields.

Problem classes and counting instances compare and print by the fields
their constructors take.  Whatever a constructor derives from them (linear
pieces, slope jumps, lookup tables) takes no part in either, so two objects
built from equal inputs are equal however their derived data was filled.
"""


class Record:
    """Equality and ``repr`` over ``_fields``, in order; unhashable, as
    mutable values should be (a subclass may define ``__hash__``)."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"
