"""Polynomial holonomy families over a complex parameter base.

A family assigns to each generator a matrix of polynomials in the parameters
s_1..s_m, required to satisfy the relator equations identically (checked at
random sample points of the polydisc).  Parameter derivatives are exact
coefficient shifts, so the family tangent cocycles carry no truncation error;
finite differences enter only at the outer level when checking closedness of
the pulled-back form coefficients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .charts import _coeff_get
from .cohomology import BarChain, fox_jacobian, fundamental_two_cycle
from .errors import InvalidInput, NotTangent
from .forms import EtaContext, eta
from .invariants import InvariantPolynomial, symmetric_tensor
from .matgroup import (
    GroupSpec,
    Representation,
    TangentVector,
    lie_algebra_basis,
)
from .numeric import DEFAULT_TOL, Tolerances
from .words import Presentation

__all__ = [
    "Poly",
    "FamilySpec",
    "family_tangent",
    "family_pullback",
    "base_change",
    "compare_base_change",
    "family_to_json",
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
                c = complex(c)
                if c != 0:
                    powers = tuple(int(x) for x in powers)
                    if len(powers) != nvars:
                        raise ValueError("power tuple length mismatch")
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
        acc: dict = {}
        for p1, c1 in self.coeffs.items():
            for p2, c2 in other.coeffs.items():
                p = tuple(a + b for a, b in zip(p1, p2))
                acc[p] = acc.get(p, 0) + c1 * c2
        return Poly(self.nvars, acc)

    __rmul__ = __mul__

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        return Poly.const(self.nvars, other)

    def diff(self, k: int) -> "Poly":
        acc = {}
        for p, c in self.coeffs.items():
            if p[k] > 0:
                q = list(p)
                q[k] -= 1
                acc[tuple(q)] = c * p[k]
        return Poly(self.nvars, acc)

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
            raise ValueError("need one substitution polynomial per variable")
        nv = subs[0].nvars
        out = Poly(nv)
        for p, c in self.coeffs.items():
            term = Poly.const(nv, c)
            for k, exp in enumerate(p):
                for _ in range(exp):
                    term = term * subs[k]
            out = out + term
        return out

    def __repr__(self):
        return f"Poly({self.nvars}, {self.coeffs})"


@dataclass(frozen=True)
class FamilySpec:
    presentation: Presentation
    group: GroupSpec
    params: tuple          # parameter names
    domain_radius: tuple   # polydisc radii, one per parameter
    images: dict           # generator name -> list of lists of Poly (n x n)

    @property
    def m(self) -> int:
        return len(self.params)

    def matrix_at(self, name: str, s) -> np.ndarray:
        entries = self.images[name]
        n = self.group.n
        out = np.empty((n, n), dtype=np.complex128)
        for i in range(n):
            for j in range(n):
                out[i, j] = entries[i][j](s)
        return out

    def rep_at(self, s, tol: Tolerances = DEFAULT_TOL,
               residual_tol: float = 1e-9) -> Representation:
        images = [self.matrix_at(name, s)
                  for name in self.presentation.generator_names]
        rho = Representation(self.presentation, self.group, images,
                             tol=tol, check=False)
        from .matgroup import evaluate_word
        n = self.group.n
        for r in self.presentation.relators:
            res = np.linalg.norm(evaluate_word(rho, r) - np.eye(n))
            if res > residual_tol:
                raise NotTangent(
                    f"family leaves Hom: relator residual {res:.3e} at s={s}")
        return rho

    def validate(self, samples: int = 20, rng=None,
                 residual_tol: float = 1e-9) -> float:
        """Relator residual at random sample points of the polydisc."""
        if rng is None:
            rng = np.random.default_rng(0)
        worst = 0.0
        from .matgroup import evaluate_word
        n = self.group.n
        for _ in range(samples):
            s = np.array([
                r * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / np.sqrt(2)
                for r in self.domain_radius])
            rho = Representation(self.presentation, self.group,
                                 [self.matrix_at(name, s)
                                  for name in self.presentation.generator_names],
                                 check=False)
            for r_word in self.presentation.relators:
                worst = max(worst, float(np.linalg.norm(
                    evaluate_word(rho, r_word) - np.eye(n))))
        if worst > residual_tol:
            raise InvalidInput(
                f"family residual {worst:.3e} exceeds {residual_tol:.1e}")
        return worst


def family_tangent(family: FamilySpec, s, k: int,
                   tol: Tolerances = DEFAULT_TOL,
                   residual_factor: float = 1e-8) -> TangentVector:
    """Cocycle sigma_k(x_j) = (d rho_s(x_j)/d s_k) rho_s(x_j)^-1 at s.

    The polynomial derivative is exact.  Raises NotTangent when the result
    fails the Fox-Jacobian residual check (invalid family)."""
    rho = family.rep_at(s, tol)
    return _tangent(family, rho, fox_jacobian(rho), s, k, residual_factor)


def _tangent(family: FamilySpec, rho: Representation, jac: np.ndarray, s,
             k: int, residual_factor: float = 1e-8) -> TangentVector:
    """``family_tangent`` at the point rho = family.rep_at(s) with its Fox
    Jacobian, both built once per point by the caller."""
    derivs = np.array([[[entry.diff(k)(s) for entry in row]
                        for row in family.images[name]]
                       for name in family.presentation.generator_names])
    inverses = np.array([rho.image(j, -1) for j in range(rho.p)])
    sigma = TangentVector.of(rho.basis.coords_from_matrix(derivs @ inverses))
    if jac.size:
        resid = np.linalg.norm(jac @ sigma.stacked)
        scale = max(np.linalg.norm(sigma.stacked), 1.0)
        if resid > residual_factor * scale:
            raise NotTangent(
                f"tangent fails cocycle check, residual {resid:.3e}")
    return sigma


def _coefficients_at(family: FamilySpec, phi: InvariantPolynomial,
                     tensor, cycle: BarChain, s,
                     tol: Tolerances) -> dict:
    rho = family.rep_at(s, tol)
    jac = fox_jacobian(rho)
    tangents = [_tangent(family, rho, jac, s, k) for k in range(family.m)]
    ctx = EtaContext(rho, phi, tensor, cycle)
    return {(k, l): eta(ctx, tangents[k], tangents[l])
            for k in range(family.m) for l in range(k + 1, family.m)}


def family_pullback(family: FamilySpec, phi: InvariantPolynomial,
                    cycle: BarChain | None = None, grid: int = 3,
                    h: float | None = None,
                    tol: Tolerances = DEFAULT_TOL) -> dict:
    """Sample the pulled-back 2-form on a real grid and check closedness.

    Coefficients use exact polynomial tangents; the exterior derivative is
    measured by holomorphic central differences (steps +-h and +-ih averaged,
    Richardson-extrapolated over h and h/2).  The difference between the real
    and imaginary step estimates is reported as a Cauchy-Riemann diagnostic.
    """
    if phi.degree != 2:
        raise InvalidInput("family_pullback implemented for degree-2 forms")
    if cycle is None:
        cycle = fundamental_two_cycle(family.presentation).chain
    if h is None:
        h = tol.fd_step
    tensor = symmetric_tensor(phi, lie_algebra_basis(family.group))
    m = family.m

    axes = [np.linspace(-r / 2, r / 2, grid) for r in family.domain_radius]
    samples = []
    scale = 0.0
    for point in itertools.product(*axes):
        s = np.asarray(point, dtype=np.complex128)
        c = _coefficients_at(family, phi, tensor, cycle, s, tol)
        samples.append({"s": [complex(z) for z in s],
                        "coefficients": {f"{k},{l}": v for (k, l), v in c.items()}})
        for v in c.values():
            scale = max(scale, abs(v))

    # closedness at the polydisc center
    center = np.zeros(m, dtype=np.complex128)
    max_d = 0.0
    cr_dev = 0.0

    def holo_partial(i, j, k, base, step):
        devs = []
        vals = []
        for direction in (1.0, 1.0j):
            e = np.zeros(m, dtype=np.complex128)
            e[i] = step * direction
            cp = _coefficients_at(family, phi, tensor, cycle, base + e, tol)
            cm = _coefficients_at(family, phi, tensor, cycle, base - e, tol)
            vals.append((_coeff_get(cp, j, k) - _coeff_get(cm, j, k))
                        / (2 * step * direction))
        devs.append(abs(vals[0] - vals[1]))
        return (vals[0] + vals[1]) / 2, max(devs)

    for (i, j, k) in itertools.combinations(range(m), 3):
        comps = []
        for step in (h, h / 2):
            total = 0.0 + 0.0j
            for sign, (a, rest) in zip(
                    (1, -1, 1), ((i, (j, k)), (j, (i, k)), (k, (i, j)))):
                val, dev = holo_partial(a, rest[0], rest[1], center, step)
                total += sign * val
                cr_dev = max(cr_dev, dev)
            comps.append(total)
        extrapolated = (4 * comps[1] - comps[0]) / 3
        max_d = max(max_d, abs(extrapolated))

    return {
        "check": "family-closedness",
        "grid": grid,
        "samples": samples,
        "scale": scale,
        "max_d": max_d,
        "cauchy_riemann_dev": cr_dev,
        "pass": bool(max_d <= 1e-5 * scale) if scale > 0 else True,
        "h": h,
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
                      tuple(new_params), tuple(new_radius), images)


def compare_base_change(family: FamilySpec, phi: InvariantPolynomial,
                        subs, new_params, new_radius,
                        cycle: BarChain | None = None,
                        points=None, rng=None, n_points: int = 3,
                        tol: Tolerances = DEFAULT_TOL) -> float:
    """Max deviation between direct pullback coefficients of the composed
    family and the chain-rule transform of the original coefficients."""
    if cycle is None:
        cycle = fundamental_two_cycle(family.presentation).chain
    pulled = base_change(family, subs, new_params, new_radius)
    tensor = symmetric_tensor(phi, lie_algebra_basis(family.group))
    m_new = len(new_params)
    if points is None:
        if rng is None:
            rng = np.random.default_rng(0)
        points = [np.array([r * rng.uniform(-0.4, 0.4) for r in new_radius],
                           dtype=np.complex128) for _ in range(n_points)]
    worst = 0.0
    for u in points:
        s = np.array([phi_k(u) for phi_k in subs], dtype=np.complex128)
        direct = _coefficients_at(pulled, phi, tensor, cycle, u, tol)
        orig = _coefficients_at(family, phi, tensor, cycle, s, tol)
        jac = np.array([[subs[k].diff(a)(u) for a in range(m_new)]
                        for k in range(family.m)], dtype=np.complex128)
        for a in range(m_new):
            for b in range(a + 1, m_new):
                via_chain = 0.0 + 0.0j
                for k in range(family.m):
                    for l in range(family.m):
                        via_chain += (_coeff_get(orig, k, l)
                                      * jac[k, a] * jac[l, b])
                worst = max(worst, abs(direct[(a, b)] - via_chain))
    return worst


# ---------------------------------------------------------------------------
# JSON wire format


def _poly_to_json(poly: Poly) -> list:
    return [{"coeff": [c.real, c.imag], "powers": list(p)}
            for p, c in sorted(poly.coeffs.items())]


def _poly_from_json(data, nvars: int) -> Poly:
    coeffs = {}
    for term in data:
        c = complex(term["coeff"][0], term["coeff"][1])
        coeffs[tuple(term["powers"])] = c
    return Poly(nvars, coeffs)


def family_to_json(family: FamilySpec) -> dict:
    return {
        "params": list(family.params),
        "domain_radius": list(family.domain_radius),
        "images": {
            name: [[_poly_to_json(e) for e in row] for row in rows]
            for name, rows in family.images.items()
        },
    }


def family_from_json(data: dict, presentation: Presentation,
                     group: GroupSpec) -> FamilySpec:
    params = tuple(data["params"])
    nvars = len(params)
    images = {}
    for name in presentation.generator_names:
        if name not in data["images"]:
            raise InvalidInput(f"family missing generator {name!r}")
        rows = data["images"][name]
        images[name] = [[_poly_from_json(e, nvars) for e in row] for row in rows]
    return FamilySpec(presentation, group, params,
                      tuple(float(r) for r in data["domain_radius"]), images)
