"""A polynomial holonomy family over a 3-parameter base.

The family assigns commuting diagonal GL(2) images to the genus-2 generators,
so the surface relator holds identically and parameter derivatives are exact
polynomial operations.  The pulled-back 2-form has order-one coefficients
that genuinely vary over the base; the demo samples them on a grid, checks
closedness exactly at the center from the family's 1-jet there, and
verifies that the construction commutes with a polynomial base change.
"""

import numpy as np

from charforms import GroupSpec, Presentation, trace_form
from charforms.families import FamilySpec, Poly, compare_base_change, family_pullback

GL2 = GroupSpec("GL", 2)


def build_family():
    pres = Presentation.surface(2)
    m = 3
    s1, s2, s3 = (Poly.var(m, k) for k in range(m))
    c = lambda v: Poly.const(m, v)
    zero = Poly(m)

    def diag(p, q):
        return [[p, zero], [zero, q]]

    images = {
        "a1": diag(c(2.0) + s1, c(0.5) + s2 + s3 * s3),
        "b1": diag(c(3.0) + s2 + s1 * s3, c(1.0 / 3.0) + s1),
        "a2": diag(c(1.0) + s3, c(1.0) - s3 + s1 * s1),
        "b2": diag(c(1.0) + s1 - s3, c(2.0) + s2 * s3),
    }
    return FamilySpec(pres, GL2, ("s1", "s2", "s3"), (0.2, 0.2, 0.2), images)


def main():
    fam = build_family()
    print(f"relator residual over the polydisc: {fam.validate():.2e}")
    print()

    report = family_pullback(fam, trace_form(), grid=3)
    print("pulled-back 2-form on the base:")
    print(f"  grid samples: {len(report['samples'])}")
    print(f"  coefficient scale: {report['scale']:.3f}")
    print(f"  max |d omega| at center: {report['max_d']:.3e} "
          f"(bound 1e-5 * scale)")
    print()
    print("  sample coefficients along the grid diagonal:")
    for smp in report["samples"][:: max(1, len(report["samples"]) // 3)]:
        s = ", ".join(f"{z.real:+.2f}" for z in smp["s"])
        w = ", ".join(f"{k}: {v.real:+.4f}"
                      for k, v in sorted(smp["coefficients"].items()))
        print(f"    s = ({s}) -> {w}")
    print()

    rng = np.random.default_rng(0)
    keys = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]
    subs = [Poly(2, {k: 0.1 * (rng.standard_normal()
                               + 1j * rng.standard_normal()) for k in keys})
            for _ in range(3)]
    dev = compare_base_change(fam, trace_form(), subs,
                              ("u1", "u2"), (0.2, 0.2), rng=rng)
    print(f"base-change identity deviation under a random quadratic "
          f"substitution: {dev:.2e}")


if __name__ == "__main__":
    main()
