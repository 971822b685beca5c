"""Join-semilattice values: merge, partial order, bottom, canonical JSON.

Values are immutable after construction and safe to share between threads.
Every variant's merge is associative, commutative and idempotent, and
``leq(a, b)`` holds exactly when ``merge(a, b) == b``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Tuple, Union

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1

Scalar = Union[bool, int, str, tuple]

_KIND_RANK = {bool: 0, int: 1, str: 2, tuple: 3}


class ShapeMismatch(Exception):
    """Raised when two lattice values of different variant shapes are
    combined, or a plain value does not fit the shape it is lifted into."""


class IntOverflow(Exception):
    """Raised when a MaxInt/MinInt payload falls outside the representable range."""


def scalar_key(v: Scalar):
    """Total-order sort key for scalars: by kind, then value (tuples lexicographic)."""
    t = type(v)
    if t is tuple:
        return (3, tuple(scalar_key(x) for x in v))
    return (_KIND_RANK[t], v)


def _check_int(v: int) -> int:
    if not (INT_MIN <= v <= INT_MAX):
        raise IntOverflow(f"integer {v} outside 64-bit range")
    return v


@dataclass(frozen=True)
class BoolOr:
    flag: bool


@dataclass(frozen=True)
class MaxInt:
    v: int

    def __post_init__(self):
        _check_int(self.v)


@dataclass(frozen=True)
class MinInt:
    v: int

    def __post_init__(self):
        _check_int(self.v)


@dataclass(frozen=True)
class SetUnion:
    elems: frozenset

    def __init__(self, elems: Iterable[Scalar] = ()):
        object.__setattr__(self, "elems", frozenset(elems))


@dataclass(frozen=True)
class MapUnion:
    # Sorted tuple of (key, value) pairs; keeps the value hashable and the
    # serialization canonical.
    items: Tuple[Tuple[Scalar, "LatticeValue"], ...]

    def __init__(self, entries: Union[Mapping, Iterable] = ()):
        if isinstance(entries, Mapping):
            entries = entries.items()
        items = tuple(sorted(entries, key=lambda kv: scalar_key(kv[0])))
        variants = {type(v) for _, v in items}
        if len(variants) > 1:
            raise ShapeMismatch(f"MapUnion values must share a variant, got {variants}")
        object.__setattr__(self, "items", items)

    @property
    def entries(self) -> dict:
        return dict(self.items)

    def get(self, key, default=None):
        for k, v in self.items:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class Pair:
    first: "LatticeValue"
    second: "LatticeValue"


@dataclass(frozen=True)
class WriteOnce:
    """A scalar written once: None is bottom, and conflicting writes keep
    the `scalar_key` maximum, so every replica settles on the same one."""
    v: Any = None


LatticeValue = Union[BoolOr, MaxInt, MinInt, SetUnion, MapUnion, Pair,
                     WriteOnce]

_VARIANTS = {
    "bool_or": BoolOr,
    "max": MaxInt,
    "min": MinInt,
    "set": SetUnion,
    "map": MapUnion,
    "pair": Pair,
    "write_once": WriteOnce,
}
VARIANT_NAMES = {cls: name for name, cls in _VARIANTS.items()}

# The shape of each row field type; int, str, ref and opaque fields are
# write-once scalars.
FIELD_SHAPES = {
    "int": "write_once", "str": "write_once", "bool": "bool_or", "set": "set",
    "max": "max", "min": "min", "ref": "write_once", "opaque": "write_once",
}


def shape_of(v: LatticeValue):
    """Variant shape descriptor: a string, or a tuple for map/pair."""
    if isinstance(v, MapUnion):
        if v.items:
            return ("map", shape_of(v.items[0][1]))
        return ("map", None)
    if isinstance(v, Pair):
        return ("pair", shape_of(v.first), shape_of(v.second))
    return VARIANT_NAMES[type(v)]


def _shapes_compatible(a, b) -> bool:
    if a == b:
        return True
    if isinstance(a, tuple) and isinstance(b, tuple) and a[0] == b[0] == "map":
        return a[1] is None or b[1] is None or _shapes_compatible(a[1], b[1])
    if isinstance(a, tuple) and isinstance(b, tuple) and a[0] == b[0] == "pair":
        return _shapes_compatible(a[1], b[1]) and _shapes_compatible(a[2], b[2])
    return False


def _require_same_shape(a: LatticeValue, b: LatticeValue):
    sa, sb = shape_of(a), shape_of(b)
    if not _shapes_compatible(sa, sb):
        raise ShapeMismatch(f"cannot combine {sa} with {sb}")


def merge(a: LatticeValue, b: LatticeValue) -> LatticeValue:
    """Least upper bound of two same-shape lattice values."""
    _require_same_shape(a, b)
    return _lub(a, b)


def _lub(a: LatticeValue, b: LatticeValue) -> LatticeValue:
    t = type(a)
    if t is WriteOnce:
        x, y = a.v, b.v
        if x is None or (y is not None and y is not x
                         and scalar_key(y) > scalar_key(x)):
            return b
        return a
    if t is BoolOr:
        return BoolOr(a.flag or b.flag)
    if t is MaxInt:
        return a if a.v >= b.v else b
    if t is MinInt:
        return a if a.v <= b.v else b
    if t is SetUnion:
        return SetUnion(a.elems | b.elems)
    if t is MapUnion:
        out = dict(a.items)
        for k, v in b.items:
            out[k] = _lub(out[k], v) if k in out else v
        return MapUnion(out)
    if t is Pair:
        return Pair(_lub(a.first, b.first), _lub(a.second, b.second))
    raise TypeError(f"not a lattice value: {a!r}")


def join(shape, a, b):
    """Two plain values merged in the lattice of `shape`, as a plain value."""
    return unwrap(_lub(wrap(a, shape), wrap(b, shape)))


def leq(a: LatticeValue, b: LatticeValue) -> bool:
    """Partial order: ``a <= b`` iff ``merge(a, b) == b``."""
    _require_same_shape(a, b)
    return merge(a, b) == b


def bottom(shape) -> LatticeValue:
    """Least element of the given variant shape."""
    if shape == "bool_or":
        return BoolOr(False)
    if shape == "max":
        return MaxInt(INT_MIN)
    if shape == "min":
        return MinInt(INT_MAX)
    if shape == "set":
        return SetUnion()
    if isinstance(shape, tuple) and shape[0] == "map":
        return MapUnion()
    if isinstance(shape, tuple) and shape[0] == "pair":
        return Pair(bottom(shape[1]), bottom(shape[2]))
    if shape == "write_once":
        return WriteOnce()
    raise ValueError(f"malformed shape: {shape!r}")


# --- canonical JSON encoding -------------------------------------------------

def _encode_scalar(v: Scalar):
    if isinstance(v, tuple):
        return {"tuple": [_encode_scalar(x) for x in v]}
    return v


def _decode_scalar(v) -> Scalar:
    if isinstance(v, dict):
        return tuple(_decode_scalar(x) for x in v["tuple"])
    return v


def encode(v: LatticeValue) -> dict:
    """Canonical dict encoding: sets/maps in sorted key order."""
    if isinstance(v, BoolOr):
        return {"variant": "bool_or", "value": v.flag}
    if isinstance(v, MaxInt):
        return {"variant": "max", "value": v.v}
    if isinstance(v, MinInt):
        return {"variant": "min", "value": v.v}
    if isinstance(v, SetUnion):
        elems = sorted(v.elems, key=scalar_key)
        return {"variant": "set", "value": [_encode_scalar(e) for e in elems]}
    if isinstance(v, MapUnion):
        return {
            "variant": "map",
            "value": [[_encode_scalar(k), encode(val)] for k, val in v.items],
        }
    if isinstance(v, Pair):
        return {"variant": "pair", "value": [encode(v.first), encode(v.second)]}
    if isinstance(v, WriteOnce):
        return {"variant": "write_once", "value": _encode_scalar(v.v)}
    raise TypeError(f"not a lattice value: {v!r}")


def decode(d: dict) -> LatticeValue:
    variant, value = d["variant"], d["value"]
    if variant == "bool_or":
        return BoolOr(value)
    if variant == "max":
        return MaxInt(value)
    if variant == "min":
        return MinInt(value)
    if variant == "set":
        return SetUnion(_decode_scalar(e) for e in value)
    if variant == "map":
        return MapUnion({_decode_scalar(k): decode(v) for k, v in value})
    if variant == "pair":
        return Pair(decode(value[0]), decode(value[1]))
    if variant == "write_once":
        return WriteOnce(_decode_scalar(value))
    raise ValueError(f"unknown variant: {variant}")


def unwrap(v: LatticeValue):
    """Plain-Python view of a lattice value, for expression evaluation."""
    t = type(v)
    if t is WriteOnce or t is MaxInt or t is MinInt:
        return v.v
    if t is SetUnion:
        return v.elems
    if t is BoolOr:
        return v.flag
    if t is MapUnion:
        return {k: unwrap(val) for k, val in v.items}
    if t is Pair:
        return (unwrap(v.first), unwrap(v.second))
    return v


def wrap(value, shape) -> LatticeValue:
    """Lift a plain-Python value into the given lattice shape. A value that
    is not a set, a frozenset or a list joins a set as one element."""
    if type(value) in VARIANT_NAMES:
        _require_same_shape(value, bottom(shape))
        return value
    if shape == "write_once":
        return WriteOnce(value)
    if shape == "bool_or":
        if not isinstance(value, bool):
            raise ShapeMismatch(f"cannot merge {value!r} into a {shape} lattice")
        return BoolOr(value)
    if shape in ("max", "min"):
        if not isinstance(value, int):
            raise ShapeMismatch(f"cannot merge {value!r} into a {shape} lattice")
        return (MaxInt if shape == "max" else MinInt)(int(value))
    if shape == "set":
        if isinstance(value, (frozenset, set, list)):
            return SetUnion(value)
        return SetUnion([value])
    if isinstance(shape, tuple) and shape[0] == "map":
        return MapUnion({k: wrap(v, shape[1]) for k, v in dict(value).items()})
    if isinstance(shape, tuple) and shape[0] == "pair":
        return Pair(wrap(value[0], shape[1]), wrap(value[1], shape[2]))
    raise ValueError(f"malformed shape: {shape!r}")
