"""Polynomial holonomy families over a complex parameter base.

A family assigns to each generator a matrix of polynomials in s_1..s_m that
satisfies the relators identically (checked at random points of the polydisc).
The entries are compiled once into a monomial table, so the images and their
exact parameter derivatives at a stack of points are one contraction; tangent
cocycles, their checks and the pulled-back form then go through the stack in
blocks of _BLOCK points.  The closedness check at s = 0 is the chart's exact
operator ``charts._jet`` on the family's tangents there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .charts import _closed, _floor, _jet, _max_d, _scale
from .cohomology import BarChain, _off_cocycle, fundamental_two_cycle, walk_words
from .errors import InvalidInput, NotTangent, SingularMatrix, malformed, natural_int
from .forms import _cycle_pairing
from .invariants import InvariantPolynomial, symmetric_tensor
from .matgroup import (
    GroupSpec,
    Representation,
    _points,
    _Points,
    _violation,
    _word_values,
    complex_from_json,
    lie_algebra_basis,
)
from .numeric import DEFAULT_TOL, Tolerances, matrix_inverse
from .words import Presentation

__all__ = [
    "Poly",
    "FamilySpec",
    "family_pullback",
    "base_change",
    "compare_base_change",
    "family_from_json",
]


class Poly:
    """Sparse multivariate polynomial with complex coefficients."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs=None):
        self.nvars = nvars
        self.coeffs = {}
        if coeffs:
            for powers, c in dict(coeffs).items():
                powers = tuple(natural_int(x, "a 'powers' entry") for x in powers)
                if len(powers) != nvars or max(powers, default=0) > _TOP_POWER:
                    raise InvalidInput(f"powers {powers} need {nvars} entries, "
                                       f"each at most {_TOP_POWER}")
                c = complex(c)
                if c != 0:
                    self.coeffs[powers] = c

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def var(nvars: int, k: int) -> "Poly":
        powers = [0] * nvars
        powers[k] = 1
        return Poly(nvars, {tuple(powers): 1.0})

    def __add__(self, other):
        other = self._coerce(other)
        acc = dict(self.coeffs)
        for p, c in other.coeffs.items():
            acc[p] = acc.get(p, 0) + c
        return Poly(self.nvars, acc)

    def __sub__(self, other):
        return self + (self._coerce(other) * (-1.0))

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Poly(self.nvars, {p: c * other for p, c in self.coeffs.items()})
        other, acc = self._coerce(other), {}
        for p1, c1 in self.coeffs.items():
            for p2, c2 in other.coeffs.items():
                p = tuple(a + b for a, b in zip(p1, p2))
                acc[p] = acc.get(p, 0) + c1 * c2
        return Poly(self.nvars, acc)

    __rmul__ = __mul__

    def _coerce(self, other) -> "Poly":  # a Poly in self's variables
        if not isinstance(other, Poly):
            return Poly.const(self.nvars, other)
        if other.nvars != self.nvars:
            raise InvalidInput(f"cannot combine polynomials in {self.nvars} "
                               f"and {other.nvars} variables")
        return other

    def __call__(self, s) -> complex:
        s = np.asarray(s, dtype=np.complex128)
        total = 0.0 + 0.0j
        for p, c in self.coeffs.items():
            term = c
            for base, exp in zip(s, p):
                if exp:
                    term *= base ** exp
            total += term
        return total

    def compose(self, subs) -> "Poly":
        """Substitute subs[k] (polynomials in new variables) for variable k."""
        subs = list(subs)
        if len(subs) != self.nvars:
            raise InvalidInput("need one substitution polynomial per variable")
        nv = subs[0].nvars
        out = Poly(nv)
        for p, c in self.coeffs.items():
            term = Poly.const(nv, c)
            for k, exp in enumerate(p):
                for _ in range(exp):
                    term = term * subs[k]
            out = out + term
        return out


class _Compiled:
    """Polynomials in m variables as a monomial table: coefficients (terms,
    polys) and the powers giving each monomial and its exact derivatives."""

    def __init__(self, polys, m: int):
        polys = list(polys)
        powers = sorted({p for poly in polys for p in poly.coeffs})
        row = {p: i for i, p in enumerate(powers)}
        self.coeffs = np.zeros((len(powers), len(polys)), dtype=np.complex128)
        for j, poly in enumerate(polys):
            for p, c in poly.coeffs.items():
                self.coeffs[row[p], j] = c
        # d/ds_k s^a = a_k s^(a - e_k): index[0] = a, index[1 + k] = a - e_k
        powers = np.array(powers, dtype=np.int64).reshape(-1, m)
        lowered = np.maximum(powers - np.eye(m, dtype=np.int64)[:, None], 0)
        self.index = np.concatenate([powers[None], lowered])
        self.factor = np.vstack([np.ones(len(powers)), powers.T])

    def __call__(self, s) -> np.ndarray:
        """(P, 1 + m, polys) at the points s (P, m): values, then d/ds_k."""
        s = np.asarray(s, dtype=np.complex128)
        top = int(self.index.max(initial=0))
        pw = np.cumprod(np.dstack([np.ones_like(s)] + [s] * top), axis=-1)  # s_k^e
        monomials = pw[:, np.arange(s.shape[1]), self.index].prod(axis=-1)
        return (monomials * self.factor) @ self.coeffs


# Points per pass of a family evaluation; the working arrays do not grow with
# the number of grid points.
_BLOCK = 64
_RELATOR_BOUND = 1e-9  # relator residual accepted on a family
_TOP_POWER = 1024  # largest exponent of a Poly: bounds the table of powers


@dataclass(frozen=True)
class FamilySpec:
    presentation: Presentation
    group: GroupSpec
    params: tuple          # parameter names
    domain_radius: tuple   # polydisc radii, one per parameter
    images: dict           # generator name -> list of lists of Poly (n x n)
    tol: Tolerances = DEFAULT_TOL  # of every decision made on the family

    def __post_init__(self):
        radii = self.domain_radius
        if len(radii) != len(self.params) or not all(0 < r < np.inf for r in radii):
            raise InvalidInput(f"domain_radius {radii} needs one finite radius > 0 "
                               f"per param of {self.params}")
        n, m, names = self.group.n, self.m, self.presentation.generator_names
        if self.images.keys() != set(names):
            raise InvalidInput(f"family images {sorted(self.images)} are not for {names}")
        for name, rows in self.images.items():
            if len(rows) != n or any(len(row) != n for row in rows):
                raise InvalidInput(f"family image {name!r} must be {n} x {n}")
            if any(not isinstance(e, Poly) or e.nvars != m for row in rows for e in row):
                raise InvalidInput(f"family image {name!r} needs Polys in {m} variables")

    @property
    def m(self) -> int:
        return len(self.params)

    @cached_property
    def _table(self) -> _Compiled:
        return _Compiled((entry for name in self.presentation.generator_names
                          for row in self.images[name] for entry in row), self.m)

    def _evaluate(self, s):
        """Images and their derivatives d/ds_k, (P, 1 + m, p, n, n), at the
        points s (P, m), and the inverses of the images.  Raises
        SingularMatrix naming the first point with a singular image and the
        generator of that image, with ``index`` point * p + generator."""
        p, n = self.presentation.p, self.group.n
        values = self._table(s).reshape(len(s), 1 + self.m, p, n, n)
        try:
            return values, matrix_inverse(values[:, 0], self.tol)
        except SingularMatrix as exc:
            point, k = divmod(exc.index, p)
            name = self.presentation.generator_names[k]
            raise SingularMatrix(f"at s={s[point]}: image of {name}: {exc}",
                                 exc.index) from exc

    def _images(self, s):
        """The points s (P, m) as one ``matgroup._Points`` record, and their
        tangents sigma_k(x_j) = (d rho_s(x_j)/d s_k) rho_s(x_j)^-1 (P, m, p, d)."""
        values, inverses = self._evaluate(s)
        basis = lie_algebra_basis(self.group)
        return (_points(self.presentation, basis, values[:, 0], inverses),
                basis.coords_from_matrix(values[:, 1:] @ inverses[:, None]))

    def rep_at(self, s) -> Representation:
        points = self._images(np.reshape(s, (1, -1)))[0]
        bad = _violation(self.presentation, self.group, points.images, points.rel,
                         _RELATOR_BOUND)
        if bad is not None:
            raise NotTangent(f"family leaves Hom: {bad[1]} at s={s}")
        return Representation(self.presentation, self.group, points.images[0], self.tol,
                              check=False)

    def validate(self) -> float:
        """Relator residual at 20 seeded random sample points of the polydisc,
        where every point must lie in Hom(Gamma, G).  Builds no Ad matrix."""
        radius = np.array(self.domain_radius, dtype=float)[:, None]
        v = radius * np.random.default_rng(0).uniform(-1, 1, (20, self.m, 2)) / np.sqrt(2)
        s = v[..., 0] + 1j * v[..., 1]
        values, inverses = self._evaluate(s)
        rel = _word_values(self.presentation.relators, values[:, 0], inverses)
        bad = _violation(self.presentation, self.group, values[:, 0], rel, _RELATOR_BOUND)
        if bad is not None:
            raise InvalidInput(f"family {bad[1]} at s={s[bad[0]]}")
        residual = np.linalg.norm(rel - np.eye(self.group.n), axis=(-2, -1))
        return float(residual.max(initial=0.0))


def _walk(family: FamilySpec, s, words):
    """Tangents sigma_k(x_j) = (d rho_s(x_j)/d s_k) rho_s(x_j)^-1, (P, m, p, d),
    at the points s (P, m), their ``walk_words`` table over ``words`` and
    the relators, and their ``_Points`` record.  Raises NotTangent at the
    first point that leaves Hom (``matgroup._violation`` at _RELATOR_BOUND)
    or whose sigma_k is ``_off_cocycle``."""
    s = np.asarray(s, dtype=np.complex128).reshape(-1, family.m)
    points, sigma = family._images(s)
    relators = family.presentation.relators
    table = walk_words(points.ad, points.ad_inv, np.moveaxis(sigma, 1, -1),
                       [*words, *relators])
    resid = np.sqrt(sum(np.linalg.norm(table[r][1], axis=1) ** 2
                        for r in relators))  # |J sigma_k|, (P, m)
    bad = _off_cocycle(resid, sigma)
    first = np.flatnonzero(bad.any(axis=1))
    left = _violation(family.presentation, family.group, points.images, points.rel,
                      _RELATOR_BOUND)
    if left is not None and (not len(first) or left[0] <= first[0]):
        raise NotTangent(f"family leaves Hom: {left[1]} at s={s[left[0]]}")
    for i in first[:1]:
        k = int(np.argmax(bad[i]))
        raise NotTangent(f"tangent {k} fails cocycle check, residual "
                         f"{resid[i, k]:.3e} at s={s[i]}")
    return sigma, table, points


def _coefficients(family: FamilySpec, tensor, cycle: BarChain, points) -> tuple:
    """Coefficients eta(sigma_k, sigma_l), (P, m, m), of the pulled-back
    form at the points (P, m), _BLOCK points per pass, and the record and
    sigma (m, p, d) of the last point, copied out so its block is freed."""
    points = np.asarray(points, dtype=np.complex128).reshape(-1, family.m)
    blocks = []
    for i in range(0, len(points), _BLOCK):
        sigma, table, record = _walk(family, points[i:i + _BLOCK], cycle.words)
        blocks.append(_cycle_pairing(cycle, tensor, table))
        last = _Points(*(a[-1].copy() for a in record)), sigma[-1].copy()
        del sigma, table, record  # one block's arrays at a time
    return np.concatenate(blocks), last


def family_pullback(family: FamilySpec, phi: InvariantPolynomial, grid: int) -> dict:
    """Sample the pulled-back 2-form on a real grid and check closedness.

    Coefficients use exact polynomial tangents, at the grid and then s = 0,
    in one batched pass and its checks.  ``charts._jet`` of sigma(0) gives
    d omega at s = 0 exactly, scale is the largest grid coefficient and
    ``charts._closed`` the verdict.  DegreeMismatch unless phi has degree 2.
    """
    if grid < 1:
        raise InvalidInput(f"grid must be at least 1, got {grid}")
    cycle = fundamental_two_cycle(family.presentation)
    basis, m = lie_algebra_basis(family.group), family.m
    tensor = symmetric_tensor(phi, basis)

    axes = [np.linspace(-r / 2, r / 2, grid) for r in family.domain_radius]
    grid_points = list(itertools.product(*axes))
    coeffs, (center, sigma) = _coefficients(family, tensor, cycle,
                                            [*grid_points, [0] * m])
    samples = [{"s": [complex(z) for z in point],
                "coefficients": {f"{k},{l}": complex(c[k, l])
                                 for k in range(m) for l in range(k + 1, m)}}
               for point, c in zip(grid_points, coeffs)]
    scale = _scale(coeffs[:-1])
    jet, top = _jet(basis, center, np.moveaxis(sigma, 0, -1), tensor, cycle)
    max_d = _max_d(jet)

    return {
        "check": "family-closedness",
        "grid": grid,
        "samples": samples,
        "scale": scale,
        "max_d": max_d,
        "pass": _closed(max_d, scale, m, _floor(tensor, top, cycle)),
    }


def base_change(family: FamilySpec, subs, new_params, new_radius) -> FamilySpec:
    """Precompose with a polynomial substitution s = phi(u)."""
    subs = list(subs)
    if len(subs) != family.m:
        raise InvalidInput("need one substitution polynomial per parameter")
    images = {
        name: [[entry.compose(subs) for entry in row] for row in rows]
        for name, rows in family.images.items()
    }
    return FamilySpec(family.presentation, family.group,
                      tuple(new_params), tuple(new_radius), images, family.tol)


def compare_base_change(family: FamilySpec, phi: InvariantPolynomial,
                        subs, new_params, new_radius, rng) -> float:
    """Max deviation between direct pullback coefficients of the composed
    family and the chain-rule transform of the original coefficients, at
    three random points.  Raises DegreeMismatch unless phi has degree 2."""
    cycle = fundamental_two_cycle(family.presentation)
    pulled = base_change(family, subs, new_params, new_radius)
    tensor = symmetric_tensor(phi, lie_algebra_basis(family.group))
    m_new = len(new_params)
    u = np.array([[r * rng.uniform(-0.4, 0.4) for r in new_radius]
                  for _ in range(3)], dtype=np.complex128)
    values = _Compiled(subs, m_new)(u)  # s, then ds/du_a
    direct = _coefficients(pulled, tensor, cycle, u)[0]
    orig = _coefficients(family, tensor, cycle, values[:, 0])[0]
    jac = values[:, 1:]  # the pairing is bilinear in the tangents
    via_chain = jac @ orig @ np.swapaxes(jac, 1, 2)
    return float(np.abs(direct - via_chain).max())


# ---------------------------------------------------------------------------
# JSON wire format


def _poly_terms(data) -> dict:
    """The raw 'coeff' of each term of one family entry, keyed by its powers;
    an entry that lists one monomial twice is invalid input."""
    terms = {}
    for term in data:
        powers = tuple(term["powers"])
        if powers in terms:
            raise InvalidInput(f"family entry repeats the monomial {list(powers)}")
        terms[powers] = term["coeff"]
    return terms


def family_from_json(data: dict, presentation: Presentation, group: GroupSpec,
                     tol: Tolerances = DEFAULT_TOL) -> FamilySpec:
    with malformed("family"):
        params = tuple(data["params"])
        radius = tuple(float(r) for r in data["domain_radius"])
        entries = {name: [[_poly_terms(e) for e in row] for row in data["images"][name]]
                   for name in presentation.generator_names}
        # every coefficient of the family in one decode, in entry order
        coeffs = iter(complex_from_json(
            [c for rows in entries.values() for row in rows for e in row
             for c in e.values()], 1, "the family's 'coeff' pairs").tolist())
        images = {name: [[Poly(len(params), {p: next(coeffs) for p in e}) for e in row]
                         for row in rows] for name, rows in entries.items()}
        return FamilySpec(presentation, group, params, radius, images, tol)
