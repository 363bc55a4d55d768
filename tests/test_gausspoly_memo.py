"""The per-instance memo of ``GaussPoly``: ``heat()``, ``derivative()``, the
Gram-grid splits and the unitarity line integrals are built once per object,
a fresh equal object gives equal results of the same types, and the two
orders of heat flow and derivative stay separately computed chains."""

from fractions import Fraction

import numpy as np
import pytest

from monogenics.cst import (
    DEFAULT_QUAD_LEVELS,
    GRAM_R_CUT,
    GRAM_X_CUT,
    _gram_split,
    _legendre_grid,
    _slice_split,
    fueter_cst_routes,
    unitarity_check,
    unitarity_gram,
)
from monogenics.gausspoly import GaussPoly, hermite_function
from monogenics.scalars import PiScalar
from monogenics.sphere import ProductGaussRule


def _builders():
    """Callables that build equal functions afresh on every call."""
    out = {f"hermite{n}": (lambda n=n: hermite_function(n)) for n in range(6)}
    out["exact_b"] = lambda: GaussPoly.exact(
        Fraction(1, 3), [1, -2, 0, Fraction(1, 2)],
        b=PiScalar({0: (Fraction(-1, 2), Fraction(1, 3))}))
    out["numeric"] = lambda: GaussPoly(0.4, 0.3 - 0.5j, [1 + 0.5j, -0.2j, 0.3 + 0j, 0.1j],
                                       0.7 + 0.2j)
    return out


BUILDERS = _builders()


def _fields(f):
    return (f.a, f.b, f.pref, f.coeffs)


def _types(f):
    return (type(f.a), type(f.b), type(f.pref), [type(c) for c in f.coeffs])


def _gram_grid(level):
    (xs, _), (rs, _) = (_legendre_grid(level[0], -GRAM_X_CUT, GRAM_X_CUT),
                        _legendre_grid(level[1], 0.0, GRAM_R_CUT, 1.0))
    return xs, rs


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_heat_and_derivative_are_built_once_per_object(name):
    f = BUILDERS[name]()
    assert f.heat() is f.heat()
    assert f.derivative() is f.derivative()
    assert f.heat() is not f.derivative()
    assert f.derivatives(3)[1:] == [f.derivative(), f.derivative().derivative(),
                                    f.derivative().derivative().derivative()]
    assert all(a is b for a, b in zip(f.derivatives(3), f.derivatives(3)))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_kept_results_equal_those_of_a_fresh_equal_object(name):
    f = BUILDERS[name]()
    kept = [f.heat(), f.derivative(), f.heat().derivative(), f.derivative().heat()]
    # read them a second time, from the memo
    again = [f.heat(), f.derivative(), f.heat().derivative(), f.derivative().heat()]
    assert all(a is b for a, b in zip(kept, again))
    g = BUILDERS[name]()
    fresh = [g.heat(), g.derivative(), g.heat().derivative(), g.derivative().heat()]
    for a, b in zip(kept, fresh):
        assert a is not b
        assert a == b
        assert _fields(a) == _fields(b)
        assert _types(a) == _types(b)


@pytest.mark.parametrize("n", range(6))
def test_heat_and_derivative_orders_stay_distinct_chains(n):
    f = hermite_function(n)
    for k in range(1, 5):
        lhs = f.derivatives(k)[-1].heat()
        rhs = f.heat().derivatives(k)[-1]
        assert lhs is not rhs
        assert lhs == rhs
    assert f.derivative().heat() is not f.heat().derivative()
    assert f.derivative().heat() == f.heat().derivative()


def test_gram_splits_are_kept_read_only_and_equal_a_fresh_split():
    f = hermite_function(3)
    unitarity_check(f, f, 2)
    F = f.heat()
    for level in DEFAULT_QUAD_LEVELS:
        xs, rs = _gram_grid(level)
        kept = _gram_split(F, xs, rs)
        assert kept is _gram_split(F, xs, rs)
        for arr, ref in zip(kept, _slice_split(hermite_function(3).heat(), xs[:, None], rs)):
            assert arr.shape == level
            assert np.array_equal(arr, ref)
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0
            with pytest.raises(ValueError):
                arr += 1.0


def _checks(fams, m):
    return [[unitarity_check(f, g, m) for g in fams] for f in fams]


@pytest.mark.parametrize("check_first", [True, False])
def test_unitarity_check_equals_gram_entries_cold_and_warm(check_first):
    fams = [hermite_function(n) for n in range(4)]
    reference = unitarity_gram([hermite_function(n) for n in range(4)],
                               [hermite_function(n) for n in range(4)], 2)
    if check_first:
        checks, gram = _checks(fams, 2), unitarity_gram(fams, fams, 2)
    else:
        gram, checks = unitarity_gram(fams, fams, 2), _checks(fams, 2)
    assert checks == gram == reference
    # a second m reuses every split and gives the same entries
    assert _checks(fams, 3) == unitarity_gram(fams, fams, 3) == reference


@pytest.mark.parametrize("m", [2, 3])
def test_fueter_routes_repeat_exactly(m):
    rule = ProductGaussRule(m, 24)
    xv = [0.5 / m ** 0.5] * m
    for n in range(4):
        f = hermite_function(n)
        first = fueter_cst_routes(f, m, 0.7, xv, rule)
        again = fueter_cst_routes(f, m, 0.7, xv, rule)
        fresh = fueter_cst_routes(hermite_function(n), m, 0.7, xv, rule)
        assert list(first) == ["heat_then_derivative", "derivative_then_heat", "radon_of_slice"]
        assert first == again == fresh


def _count_line_integrals(monkeypatch):
    calls = []
    integrate = GaussPoly.integrate_line

    def counted(self):
        calls.append(self)
        return integrate(self)

    monkeypatch.setattr(GaussPoly, "integrate_line", counted)
    return calls


def test_line_integral_is_kept_per_pair_across_m(monkeypatch):
    f, g = hermite_function(2), hermite_function(3)
    calls = _count_line_integrals(monkeypatch)
    first = unitarity_check(f, g, 2)
    assert len(calls) == 1
    # the reduced identity does not depend on m: nothing is integrated again
    assert unitarity_check(f, g, 3) == first
    assert unitarity_gram([f], [g], 4) == [[first]]
    assert len(calls) == 1


def test_line_integral_of_an_equal_new_function_has_its_own_entry(monkeypatch):
    f, g = hermite_function(2), hermite_function(3)
    first = unitarity_check(f, g, 2)
    calls = _count_line_integrals(monkeypatch)
    equal = hermite_function(3)
    assert equal == g and equal is not g
    assert unitarity_check(f, equal, 2) == first
    assert len(calls) == 1
    # each entry holds its own g, so the id it is kept under stays that g's
    kept = [entry for key, entry in f._memo.items() if key[0] == "line"]
    assert sorted(map(id, (g, equal))) == sorted(id(k) for k, _ in kept)
    assert all(key[1] == id(entry[0]) for key, entry in f._memo.items() if key[0] == "line")
