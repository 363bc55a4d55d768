import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from monogenics.clifford import (
    BLADE_TABLE,
    CliffordElement,
    Paravector,
    axial_element,
    blade_indices,
    blade_product,
    geometric_product,
)
from monogenics.scalars import PiScalar


def brute_force_blade_product(a: int, b: int) -> tuple[int, int]:
    """Oracle: explicit generator reordering with e_j e_j = -1."""
    seq = list(blade_indices(a)) + list(blade_indices(b))
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
            elif seq[i] == seq[i + 1]:
                del seq[i : i + 2]
                sign = -sign
                changed = True
                break
    mask = 0
    for j in seq:
        mask |= 1 << (j - 1)
    return mask, sign


@pytest.mark.parametrize("m", range(1, 7))
def test_blade_sign_against_reordering_oracle(m):
    for a in range(1 << m):
        for b in range(1 << m):
            mask, sign = brute_force_blade_product(a, b)
            assert blade_product(a, b) == (mask, sign)
            assert BLADE_TABLE[a][b] == (a ^ b, sign < 0)


def test_generator_square_and_mixed_products():
    m = 3
    e1, e2, e3 = (CliffordElement.generator(m, j) for j in (1, 2, 3))
    assert e1 * e1 == CliffordElement.scalar(m, Fraction(-1))
    assert (e1 * e2) * (e2 * e3) == -(e1 * e3)


def test_identity_element():
    rng = random.Random(0)
    for _ in range(20):
        m = rng.randint(1, 5)
        a = CliffordElement(m, {rng.randrange(1 << m): Fraction(rng.randint(-9, 9), 7)
                                for _ in range(4)})
        assert CliffordElement.one(m) * a == a
        assert a * CliffordElement.one(m) == a


def test_conjugation_examples():
    m = 3
    x = Paravector(Fraction(2), (Fraction(1), Fraction(-1), Fraction(3)))
    assert x.to_element().conjugate() == x.conj().to_element()
    assert CliffordElement.one(m).conjugate() == CliffordElement.one(m)
    e12 = CliffordElement.blade(m, [1, 2])
    assert e12.conjugate() == -e12  # conj(e1 e2) = conj(e2) conj(e1) = e2 e1


def test_hermitian_examples():
    m = 2
    i_one = CliffordElement.scalar(m, PiScalar.imaginary(1))
    assert i_one.hermitian() == CliffordElement.scalar(m, PiScalar.imaginary(-1))
    e1 = CliffordElement.generator(m, 1)
    assert e1.hermitian() == -e1
    rng = random.Random(3)
    for _ in range(30):
        coeffs = {rng.randrange(4): PiScalar.of(rng.randint(-5, 5))
                  + PiScalar.imaginary(rng.randint(-5, 5)) for _ in range(3)}
        a = CliffordElement(m, coeffs)
        assert a.hermitian().hermitian() == a


def test_paravector_norm_identity():
    rng = random.Random(1)
    for _ in range(50):
        m = rng.randint(1, 5)
        x = Paravector(Fraction(rng.randint(-9, 9), 5),
                       tuple(Fraction(rng.randint(-9, 9), 3) for _ in range(m)))
        prod = x.to_element() * x.to_element().conjugate()
        assert prod == CliffordElement.scalar(m, x.norm_sq())


def test_vector_anticommutator():
    rng = random.Random(2)
    for _ in range(50):
        m = rng.randint(1, 5)
        u = CliffordElement.vector(m, [Fraction(rng.randint(-6, 6)) for _ in range(m)])
        v = CliffordElement.vector(m, [Fraction(rng.randint(-6, 6)) for _ in range(m)])
        inner = sum(a * b for a, b in zip(u.vector_components(), v.vector_components()))
        assert u * v + v * u == CliffordElement.scalar(m, -2 * inner)


def test_grade_projection_partition():
    rng = random.Random(4)
    m = 4
    a = CliffordElement(m, {rng.randrange(16): Fraction(rng.randint(-9, 9)) for _ in range(8)})
    total = CliffordElement.zero(m)
    for k in range(m + 1):
        total = total + a.grade(k)
    assert total == a


elements = st.builds(
    lambda pairs: CliffordElement(3, dict(pairs)),
    st.lists(st.tuples(st.integers(0, 7),
                       st.fractions(min_value=-9, max_value=9, max_denominator=5)),
             min_size=1, max_size=5),
)


@settings(max_examples=150, deadline=None)
@given(elements, elements, elements)
def test_associativity_property(a, b, c):
    assert (a * b) * c == a * (b * c)


def test_float_exact_agreement():
    rng = random.Random(9)
    for _ in range(200):
        m = rng.randint(1, 5)
        a = CliffordElement(m, {rng.randrange(1 << m): Fraction(rng.randint(-99, 99), 100)
                                for _ in range(4)})
        b = CliffordElement(m, {rng.randrange(1 << m): Fraction(rng.randint(-99, 99), 100)
                                for _ in range(4)})
        exact = (a * b).to_numeric()
        approx = a.to_numeric() * b.to_numeric()
        scale = max(exact.norm_inf(), 1.0)
        assert (exact - approx).norm_inf() / scale < 1e-12


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        geometric_product(CliffordElement.one(2), CliffordElement.one(3))


@pytest.mark.parametrize("s", [Fraction(-2, 3), PiScalar.pi_power(2, 3), 1.25, 0.5 - 2j])
def test_scalar_operand_is_the_scalar_blade(s):
    from monogenics.poly import CliffordPolynomial

    m = 3
    a = CliffordElement(m, {0: Fraction(1, 2), 0b001: Fraction(3), 0b110: Fraction(-1, 5)})
    blade = CliffordElement.scalar(m, s)
    assert a + s == s + a == a + blade
    assert a - s == a - blade
    assert s - a == blade - a
    # a scalar cancelling the scalar part leaves no zero coefficient behind
    assert a - Fraction(1, 2) == -Fraction(1, 2) + a == CliffordElement(
        m, {0b001: Fraction(3), 0b110: Fraction(-1, 5)})
    p = CliffordPolynomial.one(m)
    for op in (lambda: a + p, lambda: p + a, lambda: a - p, lambda: p - a,
               lambda: a + "1", lambda: "1" - a, lambda: a + [s]):
        with pytest.raises(TypeError):
            op()


def test_element_times_polynomial_is_the_polynomial_product():
    from monogenics.laurent import LaurentPoly
    from monogenics.poly import CliffordPolynomial

    m = 3
    p = (CliffordPolynomial.vector_variable(m)
         + CliffordPolynomial.variable(m, 0) * CliffordElement(m, {0b011: Fraction(2)})
         + CliffordPolynomial.scalar_constant(m, Fraction(-1, 3)))
    for e in (CliffordElement.generator(m, 1),
              CliffordElement(m, {0: Fraction(1, 2), 0b110: Fraction(3)})):
        const = CliffordPolynomial.constant(m, e)
        assert e * p == const * p
        assert p * e == p * const
        assert type(e * p) is type(p * e) is CliffordPolynomial
    e1 = CliffordElement.generator(m, 1)
    assert e1 * p != p * e1
    assert e1 * CliffordPolynomial.one(m) == CliffordPolynomial.constant(m, e1)
    # Laurent data with Clifford terms is multiplied from the left as well
    f0 = LaurentPoly({0: Fraction(2), 1: CliffordElement.generator(m, 2)})
    assert e1 * f0 == LaurentPoly({0: e1 * Fraction(2), 1: e1 * f0.terms[1]})
    assert e1 * f0 != f0 * e1
    # an element never takes a non-scalar as a coefficient
    for other in ("x", [1], np.ones(2)):
        for op in (lambda: e1.__mul__(other), lambda: e1.__rmul__(other)):
            assert op() is NotImplemented


def _random_element(rng: random.Random, m: int, draw) -> CliffordElement:
    return CliffordElement(m, {mask: draw() for mask in range(1 << m) if rng.random() < 0.6})


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["exact", "float"])
def test_axial_element_matches_reference(m, kind):
    rng = random.Random(31 * m + len(kind))
    if kind == "exact":
        def draw():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    else:
        def draw():
            return rng.uniform(-2.0, 2.0)

    def reference(a, w, b):
        a = a if isinstance(a, CliffordElement) else CliffordElement.scalar(m, a)
        return a + CliffordElement.vector(m, w) * b

    for _ in range(10):
        w = [draw() for _ in range(m)]
        a_el, b_el = _random_element(rng, m, draw), _random_element(rng, m, draw)
        a, b = draw(), draw()
        for pair in ((a, b), (a_el, b_el), (a, b_el), (a_el, b)):
            got = axial_element(m, pair[0], w, pair[1])
            want = reference(pair[0], w, pair[1])
            if kind == "exact":
                assert got == want
                assert all(isinstance(c, Fraction) for c in got.coeffs.values())
            else:
                assert (got - want).norm_inf() <= 1e-15
        # an array of components is read like the list
        if kind == "float":
            assert axial_element(m, a, np.array(w), b_el) == axial_element(m, a, w, b_el)


def _blades(e: CliffordElement) -> list:
    """Each coefficient with its blade, in the element's order, by type and repr
    (which tells NaN from NaN and -0.0 from 0.0)."""
    return [(mask, type(c), repr(c)) for mask, c in e.coeffs.items()]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_axial_element_builds_the_sum_in_one_pass(m):
    # scalar a and b build one element; it must equal the generic sum in
    # coefficient, blade order and type, zero and NaN parts included
    nan = float("nan")
    scalars = [0, 3, Fraction(0), Fraction(-2, 7), PiScalar(), PiScalar.of(Fraction(1, 3)),
               PiScalar({1: (Fraction(1, 2), Fraction(-1, 5))}), 0.0, -0.0, 1.5, nan,
               0j, complex(0.0, -0.0), 2 - 0.5j, complex(nan, 1.0)]
    rng = random.Random(7 * m)
    for _ in range(60):
        w = [rng.choice(scalars) for _ in range(m)]
        for a in scalars:
            b = rng.choice(scalars)
            want = a + CliffordElement.vector(m, w) * b
            got = axial_element(m, a, w, b)
            assert _blades(got) == _blades(want)
            assert _blades(axial_element(m, a, np.array(w, dtype=object), b)) == _blades(want)
            # scale builds in one pass too, as the constructor would
            s = rng.choice(scalars)
            scaled = CliffordElement(m, {mask: c * s for mask, c in got.coeffs.items()})
            assert _blades(got.scale(s)) == _blades(scaled)
    # an element a or b still takes the generic path
    e1, e12 = CliffordElement.generator(m, 1), CliffordElement(m, {(1 << m) - 1: Fraction(2)})
    w = [Fraction(j + 1, 3) for j in range(m)]
    for a, b in ((e12, Fraction(1, 2)), (Fraction(1, 2), e12), (e1, e12), (2.5, e1)):
        assert _blades(axial_element(m, a, w, b)) == _blades(a + CliffordElement.vector(m, w) * b)
    with pytest.raises(ValueError):
        axial_element(m, 1.0, [0.5] * (m + 1), 2.0)


def test_axial_element_example():
    # 1/2 + (3/5 e1 + 4/5 e3) e1e2 = 1/2 - 3/5 e2 + 4/5 e1e2e3, as e1e1 = -1 and e3e1e2 = e1e2e3
    m = 3
    e12 = CliffordElement.blade(m, (1, 2))
    got = axial_element(m, Fraction(1, 2), [Fraction(3, 5), 0, Fraction(4, 5)], e12)
    assert got == CliffordElement(m, {0: Fraction(1, 2), 0b010: Fraction(-3, 5),
                                       0b111: Fraction(4, 5)})
    # scalar b scales w
    assert axial_element(m, 1, [1, 2, 3], Fraction(1, 2)) == CliffordElement(
        m, {0: 1, 0b001: Fraction(1, 2), 0b010: 1, 0b100: Fraction(3, 2)})
