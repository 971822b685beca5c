"""Algebraic properties of the lattice shapes, over plain values."""

import random

import pytest
from hypothesis import given, strategies as st

from conftest import ORDERED_VALUES, below
from latticeflow.lattice import (
    INT_MAX, INT_MIN, IntOverflow, ShapeMismatch, bottom, join, lift,
    order_key,
)
from latticeflow.state import Row

scalars = st.one_of(st.booleans(), st.integers(-50, 50),
                    st.text("abc", max_size=3))

BASE_SHAPES = ["bool_or", "max", "min", "set", "write_once"]


def shapes(depth=2):
    base = st.sampled_from(BASE_SHAPES)
    if depth == 0:
        return base
    inner = shapes(depth - 1)
    return st.one_of(base, st.tuples(st.just("map"), inner),
                     st.tuples(st.just("pair"), inner, inner))


def values(shape):
    """Plain values of `shape`, drawn without `lift`."""
    if shape == "bool_or":
        return st.booleans()
    if shape in ("max", "min"):
        return st.one_of(st.integers(-10**6, 10**6),
                         st.sampled_from([INT_MIN, INT_MAX]))
    if shape == "set":
        return st.frozensets(scalars, max_size=5)
    if shape == "write_once":
        return ORDERED_VALUES
    if shape[0] == "map":
        return st.dictionaries(st.integers(0, 5), values(shape[1]),
                               max_size=4)
    return st.tuples(values(shape[1]), values(shape[2]))


def shaped(n):
    """A shape and `n` values of it."""
    return shapes().flatmap(
        lambda s: st.tuples(st.just(s), *[values(s)] * n))


@given(shaped(2))
def test_commutative(t):
    shape, a, b = t
    assert join(shape, a, b) == join(shape, b, a)


@given(shaped(3))
def test_associative(t):
    shape, a, b, c = t
    assert join(shape, join(shape, a, b), c) == join(shape, a, join(shape, b, c))


@given(shaped(1))
def test_idempotent(t):
    shape, a = t
    assert join(shape, a, a) == a


@given(shaped(2))
def test_leq_iff_merge(t):
    """`join(a, b) == b` exactly when `a` is below `b`."""
    shape, a, b = t
    ab = join(shape, a, b)
    assert (ab == b) == below(shape, a, b)
    assert below(shape, a, ab) and below(shape, b, ab)


@given(shaped(1))
def test_bottom_is_least(t):
    shape, a = t
    assert join(shape, bottom(shape), a) == a == join(shape, a, bottom(shape))
    assert below(shape, bottom(shape), a)


@given(shaped(1))
def test_lift_keeps_a_value_of_its_shape(t):
    shape, a = t
    assert lift(a, shape) == a


def ill_shaped():
    """A shape and a value that does not lift into it."""
    not_int = st.one_of(st.text("abc"), st.none(),
                        st.frozensets(st.integers(), max_size=2))
    not_pair = st.one_of(st.integers(), st.none(), st.text("abc"),
                         st.tuples(st.integers()),
                         st.tuples(st.integers(), st.integers(), st.integers()))
    return st.one_of(
        st.tuples(st.sampled_from(["max", "min"]), not_int),
        st.tuples(st.just("bool_or"),
                  st.one_of(st.integers(), st.text("abc"), st.none())),
        st.tuples(shapes(1).map(lambda s: ("map", s)),
                  st.one_of(st.integers(), st.none(),
                            st.text("abc", min_size=1))),
        st.tuples(st.tuples(st.just("pair"), shapes(1), shapes(1)), not_pair),
        # a part that does not fit its own shape
        st.tuples(st.just(("pair", "set", "max")),
                  st.tuples(st.integers(), st.text("abc"))),
        st.tuples(st.just(("map", "bool_or")),
                  st.dictionaries(st.integers(0, 3), st.integers(),
                                  min_size=1)),
    )


@given(ill_shaped())
def test_shape_mismatch_raises(t):
    """`lift` refuses a value that does not fit its shape."""
    shape, value = t
    with pytest.raises(ShapeMismatch):
        lift(value, shape)


def test_int_overflow():
    with pytest.raises(IntOverflow):
        lift(2**63, "max")
    with pytest.raises(IntOverflow):
        lift(-(2**63) - 1, "min")
    with pytest.raises(IntOverflow):
        lift((frozenset(), 2**63), ("pair", "set", "min"))
    assert lift(2**63 - 1, "max") == INT_MAX
    assert lift(-(2**63), "min") == INT_MIN


def test_map_merges_pointwise():
    out = join(("map", "max"), {"x": 1, "y": 9}, {"z": 2, "x": 5})
    assert out == {"x": 5, "y": 9, "z": 2}
    assert list(out) == ["x", "y", "z"]
    assert list(lift({2: 1, 1: 5}, ("map", "max"))) == [1, 2]


def test_leq_is_partial_not_total():
    a, b = frozenset({1}), frozenset({2})
    assert join("set", a, b) not in (a, b)
    assert not below("set", a, b) and not below("set", b, a)


def test_seeded_bulk_properties():
    """1000 random join triples per shape with a fixed seed."""
    rng = random.Random(20260823)

    def rand(shape):
        if shape == "bool_or":
            return rng.random() < 0.5
        if shape in ("max", "min"):
            return rng.randint(-10**9, 10**9)
        if shape == "set":
            return frozenset(rng.sample(range(40), rng.randint(0, 6)))
        if shape == "write_once":
            return rng.choice((None, rng.randint(-5, 5), "a", "b",
                               (rng.randint(0, 2), None),
                               frozenset({rng.randint(0, 2)}),
                               Row(x=rng.randint(0, 2))))
        if shape[0] == "map":
            return {k: rand(shape[1])
                    for k in rng.sample(range(8), rng.randint(0, 4))}
        return (rand(shape[1]), rand(shape[2]))

    shapes = ["bool_or", "max", "min", "set", "write_once", ("map", "max"),
              ("pair", "set", "min"), ("map", "write_once")]
    for shape in shapes:
        for _ in range(1000):
            a, b, c = rand(shape), rand(shape), rand(shape)
            ab = join(shape, a, b)
            assert ab == join(shape, b, a)
            assert join(shape, ab, c) == join(shape, a, join(shape, b, c))
            assert join(shape, a, a) == a
            assert join(shape, bottom(shape), a) == a
            assert below(shape, a, ab) and below(shape, b, ab)
            assert below(shape, a, b) == (ab == b)
            assert lift(a, shape) == a


def test_write_once_keeps_the_first_value_or_the_larger_of_two():
    assert join("write_once", None, 3) == 3
    assert join("write_once", 3, None) == 3
    assert join("write_once", 3, "a") == "a"
    assert join("write_once", 3, 2) == 3
    assert bottom("write_once") is None


@pytest.mark.parametrize("a, b", [
    (Row(x=1), Row(x=2)), (Row(x=1), Row(x=1, y=0)),
    (frozenset({1}), frozenset({2})), (frozenset({1, 2}), frozenset({3})),
    ((1, None), (1, "a")), (frozenset({9}), Row(x=0)), ((9, 9), frozenset()),
], ids=["row-field", "row-fields", "set", "set-size", "tuple-none",
        "set-row", "tuple-set"])
def test_a_write_once_join_of_two_values_keeps_the_larger(a, b):
    # rows, sets and tuples holding None had no order, and raised KeyError
    assert join("write_once", a, b) == b == join("write_once", b, a)


def test_the_order_puts_each_kind_above_the_last():
    values = [None, True, 0, "a", (), frozenset(), Row()]
    assert sorted(reversed(values), key=order_key) == values
    # Python takes True for 1; the order does not
    assert order_key(True) < order_key(1) and order_key(True) != order_key(1)


@pytest.mark.parametrize("value", [1.5, (1, 1.5), frozenset({1.5}),
                                   Row(x=1.5)],
                         ids=["float", "in-tuple", "in-set", "in-row"])
def test_a_value_outside_the_order_is_a_type_error_naming_it(value):
    # a float from a UDF used to raise KeyError: <class 'float'>
    with pytest.raises(TypeError, match=r"^1\.5 has no place"):
        order_key(value)


def test_a_value_that_is_not_a_set_joins_a_set_as_one_element():
    assert lift((1, None), "set") == frozenset({(1, None)})
    assert lift(3, "set") == frozenset({3})
    assert lift([1, 2], "set") == frozenset({1, 2})
    assert lift({1, 2}, "set") == frozenset({1, 2})
    assert type(lift({1, 2}, "set")) is frozenset


@pytest.mark.parametrize("shape", ["max", "min"])
def test_a_value_that_does_not_fit_its_shape_is_a_shape_mismatch(shape):
    with pytest.raises(ShapeMismatch, match=f"'abc' into a {shape}"):
        lift("abc", shape)


@pytest.mark.parametrize("value", ["no", 1, None], ids=["str", "int", "none"])
def test_a_value_that_is_not_a_bool_does_not_merge_into_bool_or(value):
    # bool('no') is True: a string merged into a bool used to set it
    with pytest.raises(ShapeMismatch, match="into a bool_or lattice"):
        lift(value, "bool_or")
    assert lift(False, "bool_or") is bottom("bool_or")


@pytest.mark.parametrize("shape", [
    "bogus", ("map", "nope"), ("pair", "set"), ("pair", "max", "bogus"),
    ["map", "max"], None,
], ids=["name", "map-value", "pair-arity", "pair-part", "list", "none"])
def test_a_malformed_shape_has_no_bottom_and_lifts_nothing(shape):
    with pytest.raises(ValueError, match="malformed shape"):
        bottom(shape)
    with pytest.raises(ValueError, match="malformed shape"):
        lift(1, shape)
