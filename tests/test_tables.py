"""The process-wide tables of the exact dual Radon transform (the image of
each sorted vector exponent, ``radon._monomial_image``, and the packed key
offsets of each (m, width, vector exponent), ``radon._OFFSETS``) and of
``AxialSeries.to_polynomial`` (the packed rows of each x^(2s),
``extensions._EVEN_ROWS``), against references that keep no table:
``ref_dual_radon`` sums every multi-index with ``sphere_moment``, and the
naive expansion builds x^j by repeated products."""

import random
from fractions import Fraction

import pytest

from monogenics import extensions, radon
from monogenics.clifford import CliffordElement
from monogenics.extensions import AxialSeries, _even_rows
from monogenics.laurent import LaurentPoly
from monogenics.poly import CliffordPolynomial, _compact, _view
from monogenics.radon import _image_offsets, _monomial_image, dual_radon
from monogenics.scalars import PiScalar
from test_axial_expander import product_built_series
from test_integer_form import ref_dual_radon

J_MAX = 12
WIDE = 300                              # an x0 exponent past one byte: 16-bit fields


@pytest.fixture
def empty_tables(monkeypatch):
    monkeypatch.setattr(radon, "_OFFSETS", {})
    monkeypatch.setattr(extensions, "_EVEN_ROWS", {})
    _monomial_image.cache_clear()


def blades(m, j):
    """Blades for the j-th coefficient: over j = 0..12, every blade of m."""
    return range(j % (1 << m), 1 << m, 7)


def element(m, j, draw):
    return CliffordElement(m, {b: draw() for b in blades(m, j)})


def composition(rng, total, parts):
    exps = [0] * parts
    for _ in range(total):
        exps[rng.randrange(parts)] += 1
    return tuple(exps)


def radon_input(m, j, x0=0, draw=None):
    """Two monomials of vector degree j, permutations of one another, and one
    of degree j // 2, whose weights have a smaller denominator than the top
    degree's; their coefficients cover every blade over j = 0..12."""
    rng = random.Random(100 * m + j)
    draw = draw or (lambda: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7)))
    a, b = composition(rng, j, m), composition(rng, j // 2, m)
    return CliffordPolynomial(m, {(x0 + j % 3, *a): element(m, j, draw),
                                  (x0 + 1, *a[::-1]): element(m, j + 1, draw),
                                  (x0, *b): element(m, j + 2, draw)})


def series_input(m, x0=0, draw=None):
    """f_j = c_j x0^n_j for j = 0..12, the c_j covering every blade."""
    rng = random.Random(m)
    draw = draw or (lambda: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7)))
    return AxialSeries(m, [LaurentPoly({x0 + j % 4: element(m, j, draw)}) for j in range(J_MAX + 1)])


def bits(p, start=False):
    """exponents -> blade -> (type, repr): equal only if bit-identical.  With
    ``start``, each value as a sum started at int 0, as the engine starts
    its sums (0 + -0.0 is 0.0)."""
    return {exps: {mask: (type(c), repr(0 + c if start else c)) for mask, c in coeff.coeffs.items()}
            for exps, coeff in p.terms.items()}


@pytest.mark.parametrize("m", range(1, 7))
def test_dual_radon_equals_reference_for_every_degree_and_blade(empty_tables, m):
    for j in range(J_MAX + 1):
        p = radon_input(m, j)
        assert dual_radon(p).terms == ref_dual_radon(p), (m, j)


@pytest.mark.parametrize("m", range(1, 7))
def test_axial_polynomial_equals_naive_expansion_for_every_power_and_blade(empty_tables, m):
    series = series_input(m)
    assert series.to_polynomial().terms == product_built_series(series).terms
    # one power at a time, so no other power can cover a wrong row
    for j in range(J_MAX + 1):
        single = AxialSeries(m, [LaurentPoly()] * j + [series.coeffs[j]])
        assert single.to_polynomial().terms == product_built_series(single).terms, (m, j)


def test_tables_hold_whatever_order_fills_them(monkeypatch):
    cases = [(m, x0) for m in range(1, 7) for x0 in (0, WIDE)]
    radon_inputs = {case: [radon_input(case[0], j, case[1]) for j in range(0, 9, 2)] for case in cases}
    series = {case: series_input(*case) for case in cases}
    want = {case: ([ref_dual_radon(p) for p in radon_inputs[case]], product_built_series(series[case]).terms)
            for case in cases}
    # descending from empty tables, then ascending on the filled ones, then ascending from empty
    for order, cold in ((cases[::-1], True), (cases, False), (cases, True)):
        if cold:
            monkeypatch.setattr(radon, "_OFFSETS", {})
            monkeypatch.setattr(extensions, "_EVEN_ROWS", {})
            _monomial_image.cache_clear()
        for case in order:
            assert [dual_radon(p).terms for p in radon_inputs[case]] == want[case][0], case
            assert series[case].to_polynomial().terms == want[case][1], case
        assert {(m, width) for m, width, _ in radon._OFFSETS} == {(m, w) for m in range(1, 7) for w in (8, 16)}
        assert {(m, width) for m, _, width in extensions._EVEN_ROWS} == {(m, w) for m in range(1, 7) for w in (8, 16)}


@pytest.mark.parametrize("m", [4, 5, 6])
def test_offsets_past_63_bits_take_the_tuple_form(empty_tables, m):
    # 16-bit fields put the top vector field of the image at bit m + 16 m
    p = radon_input(m, 5, WIDE)
    got = dual_radon(p)
    assert got._width == 16 and got.terms == ref_dual_radon(p)
    forms = {type(offsets) for (mm, _, _), (_, offsets) in radon._OFFSETS.items() if mm == m}
    assert forms == {tuple} and all(len(key) == 3 and key[1] == 16 for key in radon._OFFSETS)
    series = series_input(m, WIDE)
    assert series.to_polynomial().terms == product_built_series(series).terms
    keys, _, _ = _even_rows(m, 6, 16)
    assert type(keys) is tuple and max(keys) >> 63
    # at 8-bit fields both fit 63 bits
    assert type(_image_offsets(m, 8, 1)[1]) is memoryview
    assert type(_even_rows(m, 6, 8)[0]) is memoryview
    assert list(_view(_compact([0, 2**63 - 1]))) == [0, 2**63 - 1]
    assert _compact([0, 2**63]) == (0, 2**63)


SPECIAL = {
    "float": lambda rng: rng.choice([0.375, -1.25, 1e-300, 2.5e15]) * rng.randint(1, 5),
    "pi": lambda rng: PiScalar.pi_power(rng.randint(-2, 2), Fraction(rng.randint(1, 9), rng.randint(1, 4))),
    "complex": lambda rng: complex(rng.choice([0.375, -0.0, 3.0]), rng.choice([-1.25, 0.0, 1e-300])),
}


@pytest.mark.parametrize("kind", sorted(SPECIAL))
@pytest.mark.parametrize("m", [2, 3, 5])
def test_special_data_gives_bit_identical_results(empty_tables, kind, m):
    # the references multiply each value by the same weight, so the bits agree,
    # whether the tables were empty or filled first at other m and widths
    rng = random.Random(len(kind) + m)
    draw = lambda: SPECIAL[kind](rng)  # noqa: E731
    inputs = [radon_input(m, j, x0, draw) for j in (0, 3, 6) for x0 in (0, WIDE)]
    many = [series_input(m, x0, draw) for x0 in (0, WIDE)]
    want = ([bits(CliffordPolynomial(m, ref_dual_radon(p)), True) for p in inputs],
            [bits(product_built_series(s), True) for s in many])
    for _ in range(2):
        assert [bits(dual_radon(p)) for p in inputs] == want[0]
        assert [bits(s.to_polynomial()) for s in many] == want[1]
        for other in (1, 4, 6):
            dual_radon(radon_input(other, 6, WIDE))
            series_input(other, WIDE).to_polynomial()


def test_a_caller_cannot_change_a_shared_table(empty_tables):
    m = 3
    p = radon_input(m, 6)
    series = series_input(m)
    want_radon, want_series = ref_dual_radon(p), product_built_series(series).terms
    dual_radon(p), series.to_polynomial()
    key = next(iter(radon._OFFSETS))
    s, offsets = _image_offsets(*key)
    combos, weights = _monomial_image(s)
    keys, ks, distinct = _even_rows(m, 3, 8)
    for table in (offsets, combos, combos[0], weights, keys, ks, distinct):
        with pytest.raises(TypeError):
            table[0] = 0
    # a reader's own view is all it can release
    offsets.release()
    keys.release()
    # a result shares no table: emptying its sums leaves the next call right
    for got in (dual_radon(p), series.to_polynomial()):
        got._ints[1].clear()
    assert dual_radon(p).terms == want_radon
    assert series.to_polynomial().terms == want_series
