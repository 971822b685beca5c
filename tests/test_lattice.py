"""Algebraic properties of the lattice variants."""

import random

import pytest
from hypothesis import given, strategies as st

from latticeflow import lattice
from latticeflow.lattice import (
    BoolOr, IntOverflow, MapUnion, MaxInt, MinInt, Pair, SetUnion,
    ShapeMismatch, WriteOnce, bottom, decode, encode, leq, merge, shape_of,
    unwrap, wrap,
)

scalars = st.one_of(st.booleans(), st.integers(-50, 50),
                    st.text("abc", max_size=3))


def wrap_int(v: int, shape):
    """An int drawn for a map value, wrapped as a value of `shape`; a bool
    takes its truth, since only a bool merges into bool_or."""
    return wrap(bool(v) if shape == "bool_or" else v, shape)


def lattice_values(depth=2):
    base = st.one_of(
        st.booleans().map(BoolOr),
        st.integers(-10**6, 10**6).map(MaxInt),
        st.integers(-10**6, 10**6).map(MinInt),
        st.frozensets(scalars, max_size=5).map(SetUnion),
        st.one_of(st.none(), scalars).map(WriteOnce),
    )
    if depth == 0:
        return base
    inner = lattice_values(depth - 1)
    return st.one_of(
        base,
        st.tuples(inner, inner).map(lambda p: Pair(*p)),
        # map values must share one variant: build from a single prototype
        st.tuples(st.sampled_from(["bool_or", "max", "min", "set",
                                   "write_once"]),
                  st.dictionaries(st.integers(0, 5), st.integers(-20, 20),
                                  max_size=4)).map(
            lambda t: MapUnion({k: wrap_int(v, t[0])
                                for k, v in t[1].items()})),
    )


def same_shape_pairs():
    return lattice_values().flatmap(
        lambda a: st.tuples(st.just(a), compatible_with(a)))


def compatible_with(a):
    shape = shape_of(a)
    if shape == "bool_or":
        return st.booleans().map(BoolOr)
    if shape == "max":
        return st.integers(-10**6, 10**6).map(MaxInt)
    if shape == "min":
        return st.integers(-10**6, 10**6).map(MinInt)
    if shape == "set":
        return st.frozensets(scalars, max_size=5).map(SetUnion)
    if shape == "write_once":
        return st.one_of(st.none(), scalars).map(WriteOnce)
    if isinstance(a, MapUnion):
        vshape = shape[1] or "max"
        return st.dictionaries(st.integers(0, 5), st.integers(-20, 20),
                               max_size=4).map(
            lambda d: MapUnion({k: wrap_int(v, vshape)
                                for k, v in d.items()}))
    return st.tuples(compatible_with(a.first),
                     compatible_with(a.second)).map(lambda p: Pair(*p))


@given(same_shape_pairs())
def test_commutative(pair):
    a, b = pair
    assert merge(a, b) == merge(b, a)


@given(same_shape_pairs().flatmap(
    lambda p: st.tuples(st.just(p[0]), st.just(p[1]), compatible_with(p[0]))))
def test_associative(triple):
    a, b, c = triple
    assert merge(merge(a, b), c) == merge(a, merge(b, c))


@given(lattice_values())
def test_idempotent(a):
    assert merge(a, a) == a


@given(same_shape_pairs())
def test_leq_iff_merge(pair):
    a, b = pair
    assert leq(a, b) == (merge(a, b) == b)
    assert leq(a, merge(a, b))
    assert leq(b, merge(a, b))


@given(lattice_values())
def test_bottom_is_least(a):
    bot = bottom(shape_of(a) if not isinstance(a, MapUnion)
                 else ("map", None))
    assert merge(bot, a) == a
    assert leq(bot, a)


@given(lattice_values())
def test_encode_decode_roundtrip(a):
    assert decode(encode(a)) == a


@given(lattice_values())
def test_wrap_unwrap(a):
    if isinstance(a, MapUnion) and not a.items:
        return  # shape of an empty map is underdetermined
    assert wrap(unwrap(a), shape_of(a)) == a


def test_shape_mismatch_raises():
    with pytest.raises(ShapeMismatch):
        merge(BoolOr(True), MaxInt(1))
    with pytest.raises(ShapeMismatch):
        merge(SetUnion([1]), MinInt(0))
    with pytest.raises(ShapeMismatch):
        leq(Pair(BoolOr(True), MaxInt(1)), Pair(MaxInt(1), BoolOr(True)))
    with pytest.raises(ShapeMismatch):
        MapUnion({1: BoolOr(True), 2: MaxInt(3)})


def test_int_overflow():
    with pytest.raises(IntOverflow):
        MaxInt(2**63)
    with pytest.raises(IntOverflow):
        MinInt(-(2**63) - 1)
    MaxInt(2**63 - 1)
    MinInt(-(2**63))


def test_map_merges_pointwise():
    a = MapUnion({"x": MaxInt(1), "y": MaxInt(9)})
    b = MapUnion({"x": MaxInt(5), "z": MaxInt(2)})
    assert merge(a, b) == MapUnion(
        {"x": MaxInt(5), "y": MaxInt(9), "z": MaxInt(2)})


def test_leq_is_partial_not_total():
    a, b = SetUnion([1]), SetUnion([2])
    assert not leq(a, b) and not leq(b, a)


def test_seeded_bulk_properties():
    """1000 random merge triples per variant with a fixed seed."""
    rng = random.Random(20260823)

    def rand(shape):
        if shape == "bool_or":
            return BoolOr(rng.random() < 0.5)
        if shape == "max":
            return MaxInt(rng.randint(-10**9, 10**9))
        if shape == "min":
            return MinInt(rng.randint(-10**9, 10**9))
        if shape == "set":
            return SetUnion(rng.sample(range(40), rng.randint(0, 6)))
        if shape == "write_once":
            return WriteOnce(rng.choice((None, rng.randint(-5, 5), "a", "b")))
        if shape[0] == "map":
            return MapUnion({k: rand(shape[1])
                             for k in rng.sample(range(8), rng.randint(0, 4))})
        return Pair(rand(shape[1]), rand(shape[2]))

    shapes = ["bool_or", "max", "min", "set", "write_once", ("map", "max"),
              ("pair", "set", "min"), ("map", "write_once")]
    for shape in shapes:
        for _ in range(1000):
            a, b, c = rand(shape), rand(shape), rand(shape)
            ab = merge(a, b)
            assert ab == merge(b, a)
            assert merge(ab, c) == merge(a, merge(b, c))
            assert merge(a, a) == a
            assert leq(a, ab) and leq(b, ab)
            assert leq(a, b) == (ab == b)


def test_write_once_keeps_the_first_value_or_the_larger_of_two():
    assert merge(WriteOnce(), WriteOnce(3)) == WriteOnce(3)
    assert merge(WriteOnce(3), WriteOnce()) == WriteOnce(3)
    assert merge(WriteOnce(3), WriteOnce("a")) == WriteOnce("a")
    assert merge(WriteOnce(3), WriteOnce(2)) == WriteOnce(3)
    assert bottom("write_once") == WriteOnce(None)


def test_a_value_that_is_not_a_set_joins_a_set_as_one_element():
    assert wrap((1, None), "set") == SetUnion([(1, None)])
    assert wrap(3, "set") == SetUnion([3])
    assert wrap([1, 2], "set") == SetUnion([1, 2])
    assert wrap(frozenset({1, 2}), "set") == SetUnion([1, 2])


@pytest.mark.parametrize("shape", ["max", "min"])
def test_a_value_that_does_not_fit_its_shape_is_a_shape_mismatch(shape):
    with pytest.raises(ShapeMismatch, match=f"'abc' into a {shape}"):
        wrap("abc", shape)


@pytest.mark.parametrize("value", ["no", 1, None], ids=["str", "int", "none"])
def test_a_value_that_is_not_a_bool_does_not_merge_into_bool_or(value):
    # bool('no') is True: a string merged into a bool used to set it
    with pytest.raises(ShapeMismatch, match="into a bool_or lattice"):
        wrap(value, "bool_or")
    assert wrap(False, "bool_or") == bottom("bool_or")
