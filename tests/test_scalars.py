"""GaussianRational against a reference over pairs of ``Fraction``s.

The reference holds a + b*i as (Fraction a, Fraction b); its
arithmetic, float conversion and parsing (``Fraction(str)``) define what
the integer triples must reproduce, value for value and bit for bit.
"""

import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from koszulkit.errors import FormatError
from koszulkit.jsonio import mat_from_json, parse_scalar
from koszulkit.linalg import Mat
from koszulkit.scalars import EXACT, GaussianRational, as_scalar

from oracles import pair_div, pair_mul

_parts = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=10**12),
)
_pairs = st.tuples(_parts, _parts).map(lambda p: (Fraction(p[0]), Fraction(p[1])))


def _triple(ref):
    """The normal form (a, b, d) of the value a reference pair holds."""
    re, im = ref
    d = math.lcm(re.denominator, im.denominator)
    return (int(re * d), int(im * d), d)


def _check(z, ref):
    assert (z.a, z.b, z.d) == _triple(ref)
    assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1
    assert (z.re, z.im) == ref


def _bits(c: complex):
    return (c.real.hex(), c.imag.hex())


@given(_pairs, _pairs)
def test_arithmetic_matches_fraction_pairs(x, y):
    z, w = GaussianRational(*x), GaussianRational(*y)
    _check(z, x)
    _check(z + w, (x[0] + y[0], x[1] + y[1]))
    _check(z - w, (x[0] - y[0], x[1] - y[1]))
    _check(z * w, pair_mul(x, y))
    _check(-z, (-x[0], -x[1]))
    _check(z.conjugate(), (x[0], -x[1]))
    assert z.abs2() == x[0] * x[0] + x[1] * x[1]
    if y != (0, 0):
        _check(z / w, pair_div(x, y))
    else:
        with pytest.raises(ZeroDivisionError):
            z / w


@given(_pairs, st.one_of(st.integers(-(10**6), 10**6), st.fractions(max_denominator=100)))
def test_mixed_operands_coerce_like_their_value(x, r):
    z, ref_r = GaussianRational(*x), (Fraction(r), Fraction(0))
    _check(z + r, (x[0] + ref_r[0], x[1]))
    _check(r + z, (x[0] + ref_r[0], x[1]))
    _check(z - r, (x[0] - ref_r[0], x[1]))
    _check(r - z, (ref_r[0] - x[0], -x[1]))
    _check(z * r, pair_mul(x, ref_r))
    _check(r * z, pair_mul(x, ref_r))
    if r:
        _check(z / r, pair_div(x, ref_r))
    _check(as_scalar(r, EXACT), ref_r)


@given(_pairs)
def test_floats_are_bit_identical_to_fraction_floats(x):
    z = GaussianRational(*x)
    assert _bits(z.to_complex()) == _bits(complex(float(x[0]), float(x[1])))
    assert z.magnitude().hex() == math.sqrt(float(x[0] * x[0] + x[1] * x[1])).hex()


@given(_pairs, _pairs)
def test_equality_and_hash_follow_the_value(x, y):
    z, w = GaussianRational(*x), GaussianRational(*y)
    assert (z == w) == (x == y)
    assert (z != w) == (x != y)
    # the same value built another way: unreduced "p/q" strings
    k = 3
    same = GaussianRational(
        f"{x[0].numerator * k}/{x[0].denominator * k}", f"{x[1].numerator * k}/{x[1].denominator * k}"
    )
    assert same == z and hash(same) == hash(z)
    assert (z == x[0]) == (x[1] == 0)


_HASH_P = sys.hash_info.modulus


@given(_parts)
@example(Fraction(1, _HASH_P))
@example(Fraction(-3, 2 * _HASH_P))
@example(Fraction(5, _HASH_P + 1))
@example(-1)
@example(1)
@example(0.5)
def test_real_values_hash_like_the_equal_number(x):
    # equal values must hash equally, whatever their type, so that a set
    # or dict holds them in one slot
    z = GaussianRational(x)
    assert z == Fraction(x) and hash(z) == hash(Fraction(x)) == hash(x)
    assert len({x, z}) == 1


def test_zero_has_one_normal_form():
    for z in (
        GaussianRational(),
        GaussianRational(0, 0),
        GaussianRational(Fraction(0, 7), "0/3"),
        GaussianRational(Fraction(1, 3)) - GaussianRational("2/6"),
        GaussianRational(1, 2) * GaussianRational(0),
    ):
        assert (z.a, z.b, z.d) == (0, 0, 1)
        assert z.is_zero() and not z and hash(z) == hash(GaussianRational(0))


_ints = st.integers(-(10**30), 10**30)


@given(_ints, _ints, st.integers(1, 10**30))
@example(0, 0, 7)
@example(6, -4, 10)
def test_from_ints_is_the_normal_form_of_the_value(a, b, d):
    _check(GaussianRational.from_ints(a, b, d), (Fraction(a, d), Fraction(b, d)))


@pytest.mark.parametrize("d", [0, -3])
def test_from_ints_refuses_a_denominator_that_is_not_positive(d):
    with pytest.raises(ValueError):
        GaussianRational.from_ints(1, 2, d)


def test_an_unknown_arithmetic_mode_is_refused():
    with pytest.raises(ValueError, match="^unknown arithmetic mode 'decimal'$"):
        as_scalar(1, "decimal")


def test_equality_with_values_it_cannot_coerce_is_false():
    one = GaussianRational(1)
    for other in ("abc", "", "1/0", float("nan"), float("inf"), 1j, None, object(), [1]):
        assert not (one == other)
        assert one != other
    assert one in ["x", float("nan"), GaussianRational(1)]
    assert one not in ["x", "1/0", float("nan")]
    assert one == "1" and one == 1.0


# -- parsing and printing ---------------------------------------------

_STRINGS = (
    "3/4", "-6/8", "+2/4", " 3", "1.5", "1e3", "1/0", "1/-2", "", "abc",
    "0", "-0", "007/014", "0/5", "12345678901234567890/3", "3 / 4", " 3/4 ",
    "1_000", "1_000/3", "٣", "+", "-", "/2", "2/", "1/2/3", "--1", ".5",
)


def _huge_exponent(x):
    """A string whose text after its last "e" is an integer larger in
    magnitude than the longest integer string Python reads."""
    if not isinstance(x, str) or "e" not in x.lower():
        return False
    try:
        return abs(int(x.lower().rpartition("e")[2])) > sys.get_int_max_str_digits()
    except ValueError:
        return False


def _expected_parse(re, im):
    """parse_scalar's result as the Fraction-pair representation gives it;
    a decimal exponent past sys.get_int_max_str_digits() is refused, where
    Fraction would build 10**exponent."""
    try:
        if _huge_exponent(re) or _huge_exponent(im):
            raise ValueError("decimal exponent too large")
        return (Fraction(re), Fraction(im)), None
    except (ValueError, ZeroDivisionError):
        return None, f"bad exact scalar {[re, im]!r}"


def _assert_parses_as_fraction_does(re, im):
    ref, message = _expected_parse(re, im)
    if ref is None:
        with pytest.raises(FormatError) as info:
            parse_scalar([re, im], EXACT)
        assert str(info.value) == message
    else:
        _check(parse_scalar([re, im], EXACT), ref)


@pytest.mark.parametrize("text", _STRINGS)
def test_parse_scalar_reads_strings_as_fraction_does(text):
    _assert_parses_as_fraction_does(text, "0")
    _assert_parses_as_fraction_does("1/3", text)


@given(st.text(alphabet="0123456789+-/ ._e", max_size=8), st.integers(-(10**20), 10**20))
@example("0e500001", 0)
def test_parse_scalar_agrees_with_fraction_on_any_text(text, n):
    _assert_parses_as_fraction_does(text, str(n))
    _assert_parses_as_fraction_does(n, text)


@pytest.mark.parametrize("text", ["0e9999999", "1E-500001", " 2.5e+4_301 "])
def test_huge_decimal_exponents_are_refused_quickly(text):
    start = time.perf_counter()
    for pair in ([text, "0"], ["0", text]):
        with pytest.raises(FormatError) as info:
            parse_scalar(pair, EXACT)
        assert str(info.value) == f"bad exact scalar {pair!r}"
    assert time.perf_counter() - start < 0.5
    # the largest exponent still read is the limit itself
    limit = sys.get_int_max_str_digits()
    assert parse_scalar([f"1e{limit}", f"1e-{limit}"], EXACT) == GaussianRational(
        10**limit, Fraction(1, 10**limit)
    )


def test_repeated_matrix_entries_parse_to_equal_values():
    entries = [["1/3", "-2"], ["0", "0"], ["1/3", "-2"], ["0", "0"], "1/3", ["2/6", "-2"]]
    M = mat_from_json({"rows": 2, "cols": 3, "entries": entries})
    assert [M.at(i, j) for i in range(2) for j in range(3)] == [parse_scalar(e, EXACT) for e in entries]


# -- no Fraction on the arithmetic path -------------------------------


def test_arithmetic_builds_no_fraction(monkeypatch):
    z, w = GaussianRational("3/4", "-1/6"), GaussianRational(2, "5/3")
    r = GaussianRational("7/2")
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    assert Fraction(1, 2) and built, "the counter must see Fraction constructions"
    built.clear()
    for u, v in ((z, w), (w, z), (z, r), (r, r)):
        u + v, u - v, u * v, u / v, -u, u.conjugate(), u == v, hash(u)
        u + 2, 2 + u, u - 2, 2 - u, u * 3, 3 * u, u / 5, u == 1
        u.to_complex(), u.magnitude(), u.is_zero(), bool(u)
    assert built == []


def test_magnitude_divides_before_it_leaves_the_float_range():
    # |1e200|^2 = 1e400 is past the float range; the magnitude is not
    assert GaussianRational("1e200").magnitude() == 1e200
    assert GaussianRational(0, "-1e-200").magnitude() == 1e-200
    assert GaussianRational("3e200", "4e200").magnitude() == pytest.approx(5e200, rel=1e-15)
    assert GaussianRational("1e400").magnitude() == math.inf
    assert Mat.from_rows([[0, "-1e200"], [GaussianRational("3e100", "4e100"), 1]]).max_abs() == 1e200
