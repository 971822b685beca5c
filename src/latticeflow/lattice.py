"""Join-semilattices over plain values, each directed by a declared shape.

A shape is a string or a tuple, and a value of it is a plain value:
- ``"bool_or"``: a bool, joined by ``or``;
- ``"max"`` and ``"min"``: a 64-bit int, joined by ``max`` and ``min``;
- ``"set"``: a frozenset, joined by union;
- ``"write_once"``: any plain value, with None as bottom; of two writes
  that differ the `order_key` maximum wins, so every replica keeps it;
- ``("map", s)``: a dict of values of shape ``s``, in `order_key` order of
  its keys, joined key by key;
- ``("pair", s1, s2)``: a 2-tuple, joined part by part.

A value enters lattice state once, lifted into its shape by `lift`. After
that it is only joined by `join`, which is associative, commutative and
idempotent and has `bottom` as its identity; ``join(shape, a, b) == b``
holds exactly when `a` is below `b`. Every sort, fold, tie-break and
encoding of plain values uses the one order of `order_key`.
"""

from __future__ import annotations

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1

_SCALAR_RANK = {bool: 0, int: 1, str: 2}


class ShapeMismatch(Exception):
    """Raised when a plain value does not fit the shape it is lifted into."""


class IntOverflow(Exception):
    """Raised when a max or min value falls outside the 64-bit range."""


def order_key(v):
    """Key of the one total order over plain values: None < bool < int <
    str < tuple < set < row (any dict, as `state.Row` is out of reach),
    each kind by value. TypeError for any other value, such as a float."""
    t = type(v)
    if t is int or t is str or t is bool:
        return (_SCALAR_RANK[t], v)
    if isinstance(v, tuple):
        return (4, tuple([order_key(x) for x in v]))
    if isinstance(v, frozenset):
        return (5, tuple(sorted([order_key(x) for x in v])))
    if isinstance(v, dict):
        return (6, tuple((k, order_key(x)) for k, x in sorted(v.items())))
    if v is None:
        return (-1, 0)
    raise TypeError(f"{v!r} has no place in the order of plain values")


def _by_key(item):
    return order_key(item[0])


# The shape of each row field type; int, str, ref and opaque fields are
# write-once scalars.
FIELD_SHAPES = {
    "int": "write_once", "str": "write_once", "bool": "bool_or", "set": "set",
    "max": "max", "min": "min", "ref": "write_once", "opaque": "write_once",
}

_BOTTOMS = {"bool_or": False, "max": INT_MIN, "min": INT_MAX,
            "set": frozenset(), "write_once": None}


def bottom(shape):
    """The least value of `shape`; ValueError for a malformed shape."""
    if type(shape) is str and shape in _BOTTOMS:
        return _BOTTOMS[shape]
    if type(shape) is tuple and len(shape) == 3 and shape[0] == "pair":
        return (bottom(shape[1]), bottom(shape[2]))
    if type(shape) is tuple and len(shape) == 2 and shape[0] == "map":
        bottom(shape[1])   # the value shape must be well formed too
        return {}
    raise ValueError(f"malformed shape: {shape!r}")


def lift(value, shape):
    """`value` as a value of `shape`. A set takes the elements of a
    frozenset, a set or a list, and any other value as one element; a map
    takes what `dict` takes, and a pair a 2-tuple or a 2-list, each part
    lifted into its own shape. ShapeMismatch for a value that does not fit,
    IntOverflow for an int outside 64 bits."""
    if shape == "write_once":
        return value
    if shape == "set":
        if type(value) is frozenset:
            return value
        return frozenset(value if isinstance(value, (set, list)) else (value,))
    if shape == "max" or shape == "min":
        if not isinstance(value, int):
            raise ShapeMismatch(f"cannot merge {value!r} into a {shape} lattice")
        if not INT_MIN <= value <= INT_MAX:
            raise IntOverflow(f"integer {value} outside 64-bit range")
        return int(value)
    if shape == "bool_or":
        if type(value) is not bool:
            raise ShapeMismatch(f"cannot merge {value!r} into a {shape} lattice")
        return value
    bottom(shape)   # a malformed shape is a ValueError
    if shape[0] == "pair" and isinstance(value, (tuple, list)) and len(value) == 2:
        return (lift(value[0], shape[1]), lift(value[1], shape[2]))
    if shape[0] == "map":
        try:
            items = sorted(dict(value).items(), key=_by_key)
            return {k: lift(v, shape[1]) for k, v in items}
        except (TypeError, ValueError):
            pass
    raise ShapeMismatch(f"cannot merge {value!r} into a {shape} lattice")


def join(shape, a, b):
    """The least upper bound of `a` and `b`, two values of `shape`."""
    if shape == "write_once":
        if a is None or (b is not None and b is not a
                         and order_key(b) > order_key(a)):
            return b
        return a
    if shape == "set":
        return a | b
    if shape == "max":
        return a if a >= b else b
    if shape == "min":
        return a if a <= b else b
    if shape == "bool_or":
        return a or b
    if shape[0] == "pair":
        return (join(shape[1], a[0], b[0]), join(shape[2], a[1], b[1]))
    out = dict(a)
    for k, v in b.items():
        out[k] = join(shape[1], out[k], v) if k in out else v
    return dict(sorted(out.items(), key=_by_key))
