"""The integer form of all-Fraction polynomials against references that
never touch it: element-by-element products through
``clifford.geometric_product``, termwise sums and scalings, and the dual
Radon transform summed over every multi-index with ``sphere_moment``."""

import math
import random
from fractions import Fraction

import pytest

from monogenics.clifford import CliffordElement, geometric_product
from monogenics.extensions import gck_extension
from monogenics.laurent import LaurentPoly
from monogenics.poly import FIELD, WIDTH, CliffordPolynomial, OperatorTag, apply_operator, is_monogenic
from monogenics.radon import dual_radon
from monogenics.scalars import PiScalar, sphere_moment

# small, pairwise coprime and large denominators, mixed within one polynomial
DENOMINATORS = (1, 2, 3, 7, 12, 35, 2**61 - 1, 10**30 + 57)


def rand_fraction(rng):
    num = rng.choice([-1, 1]) * rng.choice([1, 2, 5, 9, 3**40, 10**25 + 3])
    return Fraction(num, rng.choice(DENOMINATORS))


def rand_poly(rng, m, draw, nterms=5, degree=4):
    terms = {}
    for _ in range(nterms):
        exps = [0] * (m + 1)
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(m + 1)] += 1
        blades = {rng.randrange(1 << m): draw() for _ in range(rng.randint(1, 3))}
        terms[tuple(exps)] = CliffordElement(m, blades)
    return CliffordPolynomial(m, terms)


def int_form(p):
    """``(den, key -> numerator)`` if every coefficient is a Fraction, else None."""
    return p._ints if all(type(n) is int for n in p._ints[1].values()) else None


def accumulate(pieces):
    """exponents -> element, summed with element + only, zeros dropped."""
    out = {}
    for exps, el in pieces:
        out[exps] = out[exps] + el if exps in out else el
    return {e: c for e, c in out.items() if not c.is_zero()}


def ref_product(p, q):
    return accumulate(((tuple(a + b for a, b in zip(ea, eb)), geometric_product(ca, cb))
                            for ea, ca in p.terms.items() for eb, cb in q.terms.items()))


def ref_first_order(p, with_x0, sign):
    pieces = []
    for exps, c in p.terms.items():
        for j in range(0 if with_x0 else 1, p.m + 1):
            if exps[j]:
                lowered = (*exps[:j], exps[j] - 1, *exps[j + 1:])
                unit = CliffordElement.one(p.m) if j == 0 else CliffordElement.generator(p.m, j)
                pieces.append((lowered, (unit * c).scale(exps[j] * (1 if j == 0 else sign))))
    return accumulate(pieces)


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head, *tail)


def ref_dual_radon(f):
    """Every b with |b| = |a|, parity unfiltered, weighted by its multinomial
    coefficient and the sphere moment of w^(a+b)."""
    pieces = []
    for exps, c in f.terms.items():
        a = exps[1:]
        for b in compositions(sum(a), f.m):
            weight = (sphere_moment(f.m, tuple(x + y for x, y in zip(a, b)))
                      * (math.factorial(sum(a)) // math.prod(map(math.factorial, b))))
            if weight:
                pieces.append(((exps[0], *b), c.scale(weight)))
    return accumulate(pieces)


def all_fractions(p):
    return all(type(c) is Fraction for el in p.terms.values() for c in el.coeffs.values())


@pytest.mark.parametrize("m", range(2, 7))
def test_integer_kernels_match_element_references(m):
    rng = random.Random(1000 + m)
    draw = lambda: rand_fraction(rng)  # noqa: E731
    for _ in range(3):
        p, q = rand_poly(rng, m, draw), rand_poly(rng, m, draw)
        s = rand_fraction(rng)
        got = {
            "product": p * q,
            "sum": p + q,
            "difference": p - q,
            "scale": p.scale(s),
            "scale_int": p.scale(-6),
            "D": apply_operator(OperatorTag.D, p),
            "DBAR": apply_operator(OperatorTag.DBAR, p),
            "DIRAC": apply_operator(OperatorTag.DIRAC, p),
            "diff": p.diff(1),
            "dual_radon": dual_radon(p),
        }
        want = {
            "product": ref_product(p, q),
            "sum": accumulate([*p.terms.items(), *q.terms.items()]),
            "difference": accumulate([*p.terms.items(),
                                         *((e, -c) for e, c in q.terms.items())]),
            "scale": {e: c.scale(s) for e, c in p.terms.items()},
            "scale_int": {e: c.scale(-6) for e, c in p.terms.items()},
            "D": ref_first_order(p, True, 1),
            "DBAR": ref_first_order(p, True, -1),
            "DIRAC": ref_first_order(p, False, 1),
            "diff": {(e[0], e[1] - 1, *e[2:]): c.scale(e[1]) for e, c in p.terms.items() if e[1]},
            "dual_radon": ref_dual_radon(p),
        }
        for name, result in got.items():
            assert result.terms == want[name], name
            assert all_fractions(result), name
            assert result == CliffordPolynomial(m, want[name]), name


def test_integer_form_is_reduced_and_cancels_to_zero():
    m = 3
    rng = random.Random(5)
    p = rand_poly(rng, m, lambda: rand_fraction(rng))
    assert (p - p).is_zero() and (p - p).terms == {}
    assert p.scale(0).is_zero()
    # 1/6 x0 + 1/3 x1 twice is 1/3 x0 + 2/3 x1: the common denominator shrinks
    half = CliffordPolynomial(m, {
        (1, 0, 0, 0): CliffordElement.scalar(m, Fraction(1, 6)),
        (0, 1, 0, 0): CliffordElement.scalar(m, Fraction(1, 3))})
    doubled = half + half
    assert doubled == half.scale(2)
    assert doubled.terms[(1, 0, 0, 0)].coeffs == {0: Fraction(1, 3)}
    assert doubled.terms[(0, 1, 0, 0)].coeffs == {0: Fraction(2, 3)}


SPECIAL = {"pi": PiScalar.pi_power(2), "float": 0.375, "complex": complex(0.375, -1.25)}


@pytest.mark.parametrize("kind", ["pi", "float", "complex"])
def test_non_rational_data_keeps_the_scalar_path(kind):
    m = 3
    rng = random.Random(len(kind))
    special = SPECIAL[kind]
    p = rand_poly(rng, m, lambda: rand_fraction(rng))
    p = p + CliffordPolynomial(m, {(1, 1, 0, 0): CliffordElement(m, {0b101: special})})
    q = rand_poly(rng, m, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    assert int_form(p) is None
    assert (p * q).terms == ref_product(p, q)
    assert (q * p).terms == ref_product(q, p)
    assert apply_operator(OperatorTag.D, p).terms == ref_first_order(p, True, 1)
    assert p.scale(Fraction(2, 3)).terms == {e: c.scale(Fraction(2, 3)) for e, c in p.terms.items()}
    coeff = (p * q).terms
    kinds = {type(c) for el in coeff.values() for c in el.coeffs.values()}
    assert type(special) in kinds
    if kind == "pi":
        # exact data stays exact: the transform of pi-weighted data is exact too
        assert dual_radon(p).terms == ref_dual_radon(p)
        # complex pi data past the narrowest field, as gamma_m gives at even m
        wide = p + CliffordPolynomial(m, {(300, 2, 0, 1): CliffordElement(m, {
            0b011: PiScalar({1: (Fraction(1, 3), Fraction(-2))}), 0b100: Fraction(5, 7)})})
        assert wide._width == 16 and int_form(wide) is None
        assert (wide * q).terms == ref_product(wide, q)
        assert (q * wide).terms == ref_product(q, wide)
        assert apply_operator(OperatorTag.D, wide).terms == ref_first_order(wide, True, 1)
        assert dual_radon(wide).terms == ref_dual_radon(wide)


@pytest.mark.parametrize("kind", ["pi", "float", "complex"])
def test_element_actions_on_non_rational_data_match_termwise_references(kind):
    m = 3
    rng = random.Random(40 + len(kind))
    p = rand_poly(rng, m, lambda: rng.choice([SPECIAL[kind] * rng.randint(1, 5), rand_fraction(rng)]))
    for e in (CliffordElement(m, {0b011: Fraction(2, 3), 0b100: SPECIAL[kind]}),
              CliffordElement(m, {0b110: Fraction(-5, 2)})):
        assert p.scale(e).terms == accumulate((x, geometric_product(c, e)) for x, c in p.terms.items())
        assert (p * e).terms == p.scale(e).terms
        assert (e * p).terms == accumulate((x, geometric_product(e, c)) for x, c in p.terms.items())


def test_integer_and_scalar_paths_build_equal_polynomials():
    m = 4
    rng = random.Random(17)
    p = rand_poly(rng, m, lambda: rand_fraction(rng))
    q = rand_poly(rng, m, lambda: rand_fraction(rng))
    i = PiScalar.imaginary(1)
    # (i p)(i q) = -pq runs on the scalar path; i^2 = -1 leaves Fraction data
    via_scalars = p.scale(i) * q.scale(i)
    via_ints = -(p * q)
    assert int_form(p.scale(i)) is None
    assert all_fractions(via_scalars)
    assert via_scalars == via_ints and via_ints == via_scalars
    assert via_scalars.terms == via_ints.terms
    # a float twin compares by value, as the elements do
    floats = CliffordPolynomial(m, {(1,) + (0,) * m: CliffordElement.scalar(m, 0.5)})
    halves = CliffordPolynomial(m, {(1,) + (0,) * m: CliffordElement.scalar(m, Fraction(1, 2))})
    assert floats == halves and halves == floats


def test_laurent_and_polynomial_do_not_multiply():
    lp = LaurentPoly.monomial(1)
    one = CliffordPolynomial.one(3)
    for op in (lambda: lp * one, lambda: one * lp):
        with pytest.raises(TypeError):
            op()
    # elements and scalars still act on both
    e1 = CliffordElement.generator(3, 1)
    assert lp * e1 == LaurentPoly.monomial(1, e1) == e1 * lp
    assert one * Fraction(1, 2) == CliffordPolynomial.scalar_constant(3, Fraction(1, 2))
    for other in ("x", [1], object()):
        assert lp.__mul__(other) is NotImplemented and lp.__rmul__(other) is NotImplemented
        assert one.__mul__(other) is NotImplemented and one.__rmul__(other) is NotImplemented


def round_trips(p):
    """``terms`` read from a packed form packs back to the same form."""
    again = CliffordPolynomial(p.m, p.terms)
    return again == p and int_form(again) == int_form(p)


def test_packing_boundary_matches_the_references():
    m = 2
    rng = random.Random(29)
    draw = lambda: rand_fraction(rng)  # noqa: E731
    element = lambda: CliffordElement(m, {0b01: draw(), 0b11: draw()})  # noqa: E731
    # every field at its largest value, next to small terms and on each blade
    full = CliffordPolynomial(m, {(FIELD, 0, 0): element(), (0, FIELD, 1): element(),
                                  (1, 2, FIELD): element(), (FIELD, FIELD, FIELD): element()})
    low = CliffordPolynomial.constant(m, CliffordElement(m, {0: draw(), 0b01: draw(), 0b10: draw()}))
    assert int_form(full) and int_form(low)
    assert round_trips(full)
    scaled = {e: c.scale(Fraction(-3, 5)) for e, c in full.terms.items()}
    for got, want in (
            (full * low, ref_product(full, low)),
            (low * full, ref_product(low, full)),
            (full + full.scale(Fraction(-3, 5)), accumulate([*full.terms.items(), *scaled.items()])),
            (full.diff(0), {(e[0] - 1, *e[1:]): c.scale(e[0]) for e, c in full.terms.items() if e[0]}),
            (apply_operator(OperatorTag.DBAR, full), ref_first_order(full, True, -1))):
        assert got._terms is None       # made on the packed keys
        assert got.terms == want
        assert round_trips(got) and all_fractions(got)


def test_product_past_the_field_takes_the_scalar_path_and_stays_exact():
    m = 2
    p = CliffordPolynomial(m, {(200, 0, 0): CliffordElement(m, {0: Fraction(3, 4), 0b01: Fraction(1, 3)}),
                               (0, 1, 0): CliffordElement.generator(m, 2)})
    q = CliffordPolynomial(m, {(100, 0, 0): CliffordElement(m, {0b10: Fraction(-2, 9)}),
                               (1, 0, 1): CliffordElement.scalar(m, Fraction(5))})
    assert int_form(p) and int_form(q)
    pq = p * q
    assert pq._terms is None and pq._width == 2 * WIDTH   # made on packed keys, at double the width
    assert (200 + 100, 0, 0) in pq.terms
    assert pq.terms == ref_product(p, q)
    assert int_form(pq) and all_fractions(pq)
    # a field that only the or of the keys fills: 128 | 127 = 255, and 255 + 1 carries
    r = CliffordPolynomial(m, {(128, 0, 0): CliffordElement.one(m), (127, 0, 0): CliffordElement.one(m)})
    x0 = CliffordPolynomial.variable(m, 0)
    assert (r * x0)._terms is None and (r * x0)._width == WIDTH   # 129 fits once made
    assert (r * x0).terms == ref_product(r, x0) and all_fractions(r * x0)
    # what lies past the field stays on the scalar path, and exact
    assert (pq * x0).terms == ref_product(pq, x0)
    assert (pq + pq).terms == {e: c.scale(2) for e, c in pq.terms.items()}
    assert pq.diff(0).terms == {(e[0] - 1, *e[1:]): c.scale(e[0]) for e, c in pq.terms.items() if e[0]}
    assert apply_operator(OperatorTag.D, pq).terms == ref_first_order(pq, True, 1)
    assert all_fractions(pq.diff(0)) and pq == CliffordPolynomial(m, ref_product(p, q))


def test_dual_radon_past_the_field_takes_the_scalar_path():
    m = 2
    f = CliffordPolynomial(m, {(0, 200, 100): CliffordElement(m, {0b11: Fraction(2, 3)}),
                               (3, 1, 1): CliffordElement.scalar(m, Fraction(-1, 5))})
    assert int_form(f)                # every exponent fits, the image's 300 does not
    got = dual_radon(f)
    assert got.terms == ref_dual_radon(f)
    assert int_form(got) and got._width == 2 * WIDTH and all_fractions(got)


def test_axial_polynomial_past_the_field_takes_the_scalar_path():
    # x0^256 does not fit a field: its series has no integer form, and is exact
    for m, n in ((1, FIELD), (1, FIELD + 1), (2, FIELD + 1)):
        p = gck_extension(LaurentPoly.monomial(n), m).to_polynomial()
        assert p.terms[(n,) + (0,) * m] == CliffordElement.one(m)
        assert int_form(p) and p._width == (WIDTH if n <= FIELD else 2 * WIDTH)
        assert all_fractions(p) and is_monogenic(p), (m, n)


def test_dual_radon_of_float_data_past_a_float_sized_denominator():
    # the image of x1^160 x2^2 has integer weights over a denominator past 1e308:
    # float data takes rational weights and matches the exact image
    m = 2
    exact = CliffordPolynomial(m, {(1, 160, 2): CliffordElement(m, {0b01: Fraction(3, 8)})})
    floats = CliffordPolynomial(m, {(1, 160, 2): CliffordElement(m, {0b01: 0.375})})
    want, got = dual_radon(exact).terms, dual_radon(floats).terms
    assert got.keys() == want.keys()
    for exps, el in got.items():
        (mask, c), = el.coeffs.items()
        assert type(c) is float and c == pytest.approx(float(want[exps].coeffs[mask]), rel=1e-14)
