"""Closedness of the Goldman form on a local chart.

Builds a 3-dimensional holomorphic chart at an irreducible genus-2 point:
the point at t is exp(S t + C c(t)) rho, with c(t) solved from the relators
by Newton's method and the tangents taken exactly from the implicit-function
theorem.  It pulls the 2-form back to the chart parameters and reads its
exterior derivative at the center exactly, from the chart's 1-jet over the
dual numbers.  As a cross-check it also differences the coefficients on the
Newton-solved chart: each partial is the mean of the central differences of
width h along 1 and along i, the error estimate is their half-difference,
and their spread checks that the coefficients are holomorphic.  A
deliberately injected non-closed perturbation shows the detector is not
vacuous.
"""

import numpy as np

from charforms import (
    Chart,
    GroupSpec,
    Presentation,
    Representation,
    cocycle_space,
    fundamental_two_cycle,
    trace_form,
)
from charforms.charts import chart_closedness, eta_coefficients, fd_exterior_derivative

SL2 = GroupSpec("SL", 2)


def main():
    pres = Presentation.surface(2)
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    b = np.array([[1.0, 1.0], [1.0, 2.0]])
    rho = Representation(pres, SL2, [a, b, b, a])
    space = cocycle_space(rho)
    chart = Chart(rho, space.h1[:, :3])
    cycle = fundamental_two_cycle(pres)
    exact = chart_closedness(chart, trace_form(), cycle)
    print("exact exterior derivative at the chart's center:")
    print(f"  max |d omega| = {exact['max_d']:.3e}")
    print(f"  coefficient scale = {exact['scale']:.3f}")
    print(f"  ratio = {exact['max_d'] / exact['scale']:.3e} (bound 1e-5)")
    print()

    coeffs = eta_coefficients(chart, trace_form(), cycle)
    fd = fd_exterior_derivative(chart.dim, coeffs, h=3e-2)
    print("finite-difference cross-check on the solved chart, h = 3e-2:")
    print(f"  max |d omega| = {fd['max_d']:.3e}")
    print(f"  ratio = {fd['max_d'] / fd['scale']:.3e} (bound 1e-5)")
    print(f"  error estimate |d_1 - d_i| / 2 = {fd['fd_error']:.3e}")
    print(f"  Cauchy-Riemann deviation = {fd['cauchy_riemann_dev']:.3e}")
    print(f"  coefficient evaluations: {fd['evaluations']}")
    print()

    def perturbed(t):
        c = coeffs(t)
        c[(1, 2)] = c[(1, 2)] + 1e-3 * t[0]
        return c

    fd_bad = fd_exterior_derivative(chart.dim, perturbed, h=3e-2)
    print("after injecting a non-closed 1e-3 perturbation into one coefficient:")
    print(f"  max |d omega| = {fd_bad['max_d']:.3e} (detection bound 1e-4)")


if __name__ == "__main__":
    main()
