"""The exact product kernel of the polynomial engine, and the shared powers of
x built on it, against in-test witnesses.

The witnesses share no code with the kernel: the blade sign comes from the
explicit reordering oracle of test_clifford, and products are formed by a
plain double loop over terms and blades.
"""

import random
import subprocess
import sys
from fractions import Fraction

import pytest

from monogenics.clifford import BLADE_TABLE, CliffordElement
from monogenics.extensions import AxialSeries, appell_Q, gck_extension
from monogenics.laurent import LaurentPoly
from monogenics import poly
from monogenics.poly import CliffordPolynomial, OperatorTag, apply_operator, paravector_power
from monogenics.scalars import PiScalar
from test_clifford import brute_force_blade_product
from test_poly import radial_sq


def naive_product(p: CliffordPolynomial, q: CliffordPolynomial) -> CliffordPolynomial:
    sums: dict = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            blades = sums.setdefault(tuple(x + y for x, y in zip(ea, eb)), {})
            for ma, a in ca.coeffs.items():
                for mb, b in cb.coeffs.items():
                    mask, sign = brute_force_blade_product(ma, mb)
                    c = a * b if sign > 0 else -(a * b)
                    blades[mask] = blades[mask] + c if mask in blades else c
    return CliffordPolynomial(p.m, {e: CliffordElement(p.m, bl) for e, bl in sums.items()})


def typed_terms(p: CliffordPolynomial) -> dict:
    return {(e, mask): type(c) for e, el in p.terms.items() for mask, c in el.coeffs.items()}


def is_exact(p: CliffordPolynomial) -> bool:
    for el in p.terms.values():
        for c in el.coeffs.values():
            if isinstance(c, PiScalar):
                if not all(isinstance(x, Fraction) for _, re, im in c.terms() for x in (re, im)):
                    return False
            elif type(c) is not Fraction:
                return False
    return True


def rand_scalar(rng, kind):
    if kind == "float":
        return rng.uniform(-2, 2)
    q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
    if kind == "pi" and rng.random() < 0.7:
        return PiScalar({rng.randint(0, 2): (q, Fraction(rng.randint(-3, 3), 2))})
    return q


def rand_poly(rng, m, kind, nterms=4, degree=3):
    terms = {}
    for _ in range(nterms):
        exps = [0] * (m + 1)
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(m + 1)] += 1
        if kind == "mixed" and rng.random() < 0.5:
            coeff = {0: rand_scalar(rng, rng.choice(["fraction", "pi"]))}
        else:
            sub = "fraction" if kind == "mixed" else kind
            coeff = {rng.randrange(1 << m): rand_scalar(rng, sub) for _ in range(rng.randint(1, 3))}
        terms[tuple(exps)] = CliffordElement(m, coeff)
    return CliffordPolynomial(m, terms)


def rand_unit_poly(rng, m, nterms=3):
    """Every coefficient one blade times the rational 1 or -1."""
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, 2) for _ in range(m + 1))
        terms[exps] = CliffordElement(m, {rng.randrange(1 << m): Fraction(rng.choice([-1, 1]))})
    return CliffordPolynomial(m, terms)


def unit_factors(m):
    x0 = CliffordPolynomial.variable(m, 0)
    vec = CliffordPolynomial.vector_variable(m)
    return [x0 + vec, x0 - vec, vec, x0 ** 3, radial_sq(m)]


def test_blade_table_fills_on_use_at_any_m():
    code = ("import monogenics; from monogenics.clifford import BLADE_TABLE; "
            "print(len(BLADE_TABLE))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"
    # no cap on m: two blades of a 40-generator algebra hold one table entry
    m = 40
    a, b = (1 << 39) | (1 << 3) | 1, (1 << 39) | (1 << 20) | 2
    pa = CliffordPolynomial(m, {(1,) + (0,) * m: CliffordElement(m, {a: Fraction(2)})})
    pb = CliffordPolynomial(m, {(0, 1) + (0,) * (m - 1): CliffordElement(m, {b: Fraction(3)})})
    assert pa * pb == naive_product(pa, pb)
    assert (pa * pb).terms[(1, 1) + (0,) * (m - 1)].coeffs.keys() == {a ^ b}
    ea, eb = CliffordElement(m, {a: Fraction(2)}), CliffordElement(m, {b: Fraction(3)})
    assert (ea * eb).coeffs == {a ^ b: Fraction(brute_force_blade_product(a, b)[1] * 6)}
    assert BLADE_TABLE[a].keys() == {b}


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("kind", ["fraction", "pi", "float", "mixed"])
def test_product_matches_naive_double_loop(m, kind):
    rng = random.Random(100 * m + len(kind))
    for _ in range(6):
        p, q = rand_poly(rng, m, kind), rand_poly(rng, m, kind)
        got = p * q
        want = naive_product(p, q)
        assert got == want
        assert typed_terms(got) == typed_terms(want)
        assert is_exact(got) == (kind != "float")


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("kind", ["float", "pi"])
def test_reused_blade_rows_sum_in_the_naive_order(m, kind):
    """Many left terms on each blade reuse one row; every sum forms in the
    naive loop's order, so float data is bit-identical."""
    rng = random.Random(59 * m + len(kind))
    for _ in range(3):
        p, q = rand_poly(rng, m, kind, nterms=30), rand_poly(rng, m, kind, nterms=30)
        for got, want in ((p * q, naive_product(p, q)), (q * p, naive_product(q, p))):
            assert got == want
            assert typed_terms(got) == typed_terms(want)


@pytest.mark.parametrize("m", range(1, 7))
def test_paravector_powers_match_a_naive_chain_in_any_order(m, monkeypatch):
    monkeypatch.setattr(poly, "_POWERS", {})
    x = CliffordPolynomial.variable(m, 0) + CliffordPolynomial.vector_variable(m)
    chain = [CliffordPolynomial.one(m)]
    for _ in range(10):
        chain.append(naive_product(chain[-1], x))
    for k in [*range(10, -1, -1), *range(11)]:
        assert paravector_power(m, k) == chain[k]
    # what a caller does with a shared power leaves the next call's value alone
    for k in (0, 1, 5):
        p = paravector_power(m, k)
        assert p.scale(2) + x == chain[k] + chain[k] + x
        assert p.terms == chain[k].terms
    for k in range(11):
        assert paravector_power(m, k) == chain[k]
    assert paravector_power(m, 10) is paravector_power(m, 10)     # built once
    with pytest.raises(ValueError):
        paravector_power(m, -1)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("kind", ["fraction", "pi", "float", "mixed"])
def test_unit_blade_products_match_naive_double_loop(m, kind):
    rng = random.Random(7 * m + len(kind))
    units = unit_factors(m) + [rand_unit_poly(rng, m) for _ in range(3)]
    for u in units:
        p = rand_poly(rng, m, kind)
        for got, want in ((u * p, naive_product(u, p)), (p * u, naive_product(p, u)),
                          (u * units[-1], naive_product(u, units[-1]))):
            assert got == want
            assert typed_terms(got) == typed_terms(want)


def test_exact_products_stay_exact():
    m = 3
    i = PiScalar.imaginary(1)
    p = CliffordPolynomial(m, {(1, 0, 0, 0): CliffordElement(m, {0: i, 3: PiScalar.pi_power(1)}),
                               (0, 1, 0, 0): CliffordElement(m, {5: Fraction(2, 3)})})
    for q in [p, *unit_factors(m)]:
        for prod in (p * q, q * p):
            assert is_exact(prod)
    # i * i = -1 demotes to a Fraction through canon
    sq = CliffordPolynomial.scalar_constant(m, i) * CliffordPolynomial.scalar_constant(m, i)
    assert sq.terms == {(0,) * 4: CliffordElement.scalar(m, Fraction(-1))}
    assert type(sq.terms[(0,) * 4].coeffs[0]) is Fraction


def test_cancelling_products_drop_terms():
    m = 3
    x0, x1 = CliffordPolynomial.variable(m, 0), CliffordPolynomial.variable(m, 1)
    # unit factors: (x0 + x1)(x0 - x1) loses its x0 x1 terms
    assert (x0 + x1) * (x0 - x1) == x0 * x0 - x1 * x1
    assert set(((x0 + x1) * (x0 - x1)).terms) == {(2, 0, 0, 0), (0, 2, 0, 0)}
    # general factors: the same with coefficients 2 and 3
    prod = (x0 + x1).scale(2) * (x0 - x1).scale(3)
    assert set(prod.terms) == {(2, 0, 0, 0), (0, 2, 0, 0)}
    # a zero divisor: (1 + e123)(1 - e123) = 0 since e123^2 = 1 at m = 3
    e123 = CliffordElement.blade(m, [1, 2, 3])
    one = CliffordElement.one(m)
    p = CliffordPolynomial(m, {(1, 0, 0, 0): one + e123, (0, 0, 1, 0): (one + e123).scale(5)})
    q = CliffordPolynomial(m, {(0, 1, 0, 0): one - e123, (0, 0, 0, 2): one - e123})
    assert (p * q).terms == {} and (p * q).is_zero()
    assert (p * q.scale(Fraction(1, 3))).terms == {}


def reference_operator(tag: OperatorTag, p: CliffordPolynomial) -> CliffordPolynomial:
    """The operators from diff, products with e_j by the naive loop, and sums."""
    m = p.m
    d0 = p.diff(0)
    dirac = CliffordPolynomial.zero(m)
    for j in range(1, m + 1):
        ej = CliffordPolynomial.constant(m, CliffordElement.generator(m, j))
        dirac = dirac + naive_product(ej, p.diff(j))
    lap = CliffordPolynomial.zero(m)
    for j in range(m + 1):
        lap = lap + p.diff(j).diff(j)
    return {
        OperatorTag.D: d0 + dirac,
        OperatorTag.DBAR: d0 - dirac,
        OperatorTag.DIRAC: dirac,
        OperatorTag.LAPLACIAN: lap,
        OperatorTag.PARTIAL_X0: d0,
        OperatorTag.HYPERCOMPLEX: (d0 - dirac).scale(Fraction(1, 2)),
    }[tag]


@pytest.mark.parametrize("tag", list(OperatorTag))
@pytest.mark.parametrize("kind", ["fraction", "pi", "mixed", "float"])
def test_fused_operator_matches_diff_reference(tag, kind):
    rng = random.Random(31 + len(kind))
    for m in range(1, 6):
        for _ in range(3):
            p = rand_poly(rng, m, kind, nterms=6, degree=4)
            got, want = apply_operator(tag, p), reference_operator(tag, p)
            if kind == "float":     # sums in another order: equal to rounding
                assert (got - want).norm_inf() <= 1e-12 * max(1.0, p.norm_inf())
            else:
                assert got == want
                assert typed_terms(got) == typed_terms(want)
    # the Appell polynomials are monogenic, the vector variable is not
    assert apply_operator(OperatorTag.D, appell_Q(4, 5)).is_zero()
    assert not apply_operator(OperatorTag.D, CliffordPolynomial.vector_variable(4)).is_zero()


@pytest.mark.parametrize("m", [2, 3, 5])
def test_series_to_polynomial_matches_products(m):
    """sum_j x^j f_j(x0), with Clifford, PiScalar and float data on the right."""
    e1 = CliffordElement.generator(m, 1)
    e12 = CliffordElement.blade(m, [1, 2], Fraction(2, 3))
    datas = [
        LaurentPoly({3: e1 + e12, 1: PiScalar.pi_power(1, Fraction(1, 3)), 0: Fraction(-2)}),
        LaurentPoly({2: 0.75, 0: -1.5}),
    ]
    vec = CliffordPolynomial.vector_variable(m)
    x0 = CliffordPolynomial.variable(m, 0)
    for f0 in datas:
        series = gck_extension(f0, m)
        want = CliffordPolynomial.zero(m)
        vp = CliffordPolynomial.one(m)
        for f in series.coeffs:
            for n, c in f.terms.items():
                c = c if isinstance(c, CliffordElement) else CliffordElement.scalar(m, c)
                want = want + naive_product(naive_product(vp, x0 ** n),
                                            CliffordPolynomial.constant(m, c))
            vp = naive_product(vp, vec)
        got = series.to_polynomial()
        assert got == want
        assert typed_terms(got) == typed_terms(want)
    with pytest.raises(ValueError):
        AxialSeries(m, [LaurentPoly({-1: Fraction(1)})]).to_polynomial()
