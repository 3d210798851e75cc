"""Seeded benchmark inputs and their closed-form expectations.

Everything here is independent of the code under test: points are built
with numpy and scipy only, and the expected dimensions come from closed
forms, not from charforms.

Point construction (scale ``SCALE``):

* X_A, X_B, X_C are random Lie-algebra elements: complex Gaussian matrices
  with entries re + i*im, re and im standard normal, times ``SCALE``; for SL
  the trace is removed.  A, B, C = exp(X_A), exp(X_B), exp(X_C).
* A genus-g surface point uses (A, B, B, A) for each pair of handles and
  (C, C^2) for the last handle when g is odd.  [A,B][B,A] = 1 and
  [C, C^2] = 1, so the relator holds to rounding.
* A free group F_p takes p independent exponentials.
* With A, B, C generic, the centralizer H^0 of the image is the centre of
  the Lie algebra (0 for sl(n), 1 for gl(n)) when g >= 2 or for a free
  group, and a Cartan subalgebra (n-1 or n) for genus 1, where the image is
  generated by C alone.  With d = dim g:
      dim B^1 = d - dim H^0,  dim H^2 = dim H^0,
      dim H^1 = (2g - 2) d + 2 dim H^0     (surface),
      dim Z^1 = p d                         (free group).

SCALE = 0.3 keeps every generator image within operator distance ~1 of the
identity, so the images are generic yet well conditioned (cond <= e^2 for
the typical draw).  The same scale is used for every workload so that the
ladders share their points.

A ``fixed`` rung does not draw from the seed: it is the genus-2 SL(2) point
(A0, B0, B0, A0) on which the project's acceptance criterion 6 certifies
chart closedness, with A0 = [[2, 1], [1, 1]] and B0 = [[1, 1], [1, 2]].  A0
and B0 share no eigenvector, so the point is irreducible and the generic
genus >= 2 dimensions hold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg

SCALE = 0.3

# Polynomial families: parameter count, polydisc radius and grid size.
FAMILY_PARAMS = 3
FAMILY_RADIUS = 0.2
FAMILY_GRID = 3

ACCEPTANCE_A = np.array([[2.0, 1.0], [1.0, 1.0]])
ACCEPTANCE_B = np.array([[1.0, 1.0], [1.0, 2.0]])


@dataclass(frozen=True)
class Rung:
    """One kind of input: a command on a group type at a given size."""

    command: str   # charforms CLI command
    kind: str      # "GL" or "SL"
    n: int         # matrix size
    genus: int = 0  # surface genus; 0 for a free group
    free: int = 0   # number of free generators when genus == 0
    fixed: bool = False  # the acceptance point instead of a seeded draw

    @property
    def label(self) -> str:
        shape = f"g{self.genus}" if self.genus else f"F{self.free}"
        return f"{shape}-{self.kind}{self.n}" + ("-fixed" if self.fixed else "")

    @property
    def dim_g(self) -> int:
        return self.n * self.n - (1 if self.kind == "SL" else 0)

    @property
    def p(self) -> int:
        return 2 * self.genus if self.genus else self.free


def expected_dims(rung: Rung) -> dict:
    """Closed-form dimensions for a generic point of the rung."""
    d = rung.dim_g
    centre = 0 if rung.kind == "SL" else 1
    cartan = rung.n - 1 if rung.kind == "SL" else rung.n
    if rung.genus:
        h0 = cartan if rung.genus == 1 else centre
        h1 = (2 * rung.genus - 2) * d + 2 * h0
        b1 = d - h0
        return {"z1": h1 + b1, "b1": b1, "h1": h1, "h2": h0}
    b1 = d - centre
    z1 = rung.p * d
    return {"z1": z1, "b1": b1, "h1": z1 - b1, "h2": None}


def _lie_element(rng, kind: str, n: int) -> np.ndarray:
    x = SCALE * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    if kind == "SL":
        x -= (np.trace(x) / n) * np.eye(n)
    return x


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def surface_presentation(genus: int) -> dict:
    names, letters = [], []
    for i in range(1, genus + 1):
        a, b = f"a{i}", f"b{i}"
        names += [a, b]
        letters += [a, b, f"{a}^-1", f"{b}^-1"]
    return {"generators": names, "relators": [" ".join(letters)]}


def point_images(rung: Rung, rng) -> list:
    """Generator images of one seeded point, in generator order."""
    if rung.fixed:
        return [ACCEPTANCE_A, ACCEPTANCE_B, ACCEPTANCE_B, ACCEPTANCE_A]
    draws = [scipy.linalg.expm(_lie_element(rng, rung.kind, rung.n))
             for _ in range(rung.free if not rung.genus else 3)]
    if not rung.genus:
        return draws
    a, b, c = draws
    images = []
    for _ in range(rung.genus // 2):
        images += [a, b, b, a]
    if rung.genus % 2:
        images += [c, c @ c]
    return images


def point_payload(rung: Rung, rng) -> dict:
    """CLI input for a surface-group or free-group point."""
    if rung.genus:
        pres = surface_presentation(rung.genus)
    else:
        pres = {"generators": [chr(ord("a") + i) for i in range(rung.free)],
                "relators": []}
    images = point_images(rung, rng)
    return {
        "presentation": pres,
        "representation": {
            "group": {"kind": rung.kind, "n": rung.n},
            "images": {name: _matrix_json(m)
                       for name, m in zip(pres["generators"], images)},
        },
    }


def _poly_json(terms: dict) -> list:
    return [{"coeff": [float(c.real), float(c.imag)], "powers": list(p)}
            for p, c in sorted(terms.items())]


def family_payload(rung: Rung, rng) -> dict:
    """CLI input for a polynomial family of commuting diagonal GL(n) images.

    Each diagonal entry is exp(z0) + sum_k z_k s_k + z_q s_i s_j with
    Gaussian z's of size SCALE and one random quadratic monomial, so the
    entries stay near exp(z0) on the polydisc and the images commute, which
    makes the surface relator hold identically.
    """
    m = FAMILY_PARAMS
    pres = surface_presentation(rung.genus)

    def cplx(size=None):
        return SCALE * (rng.standard_normal(size) + 1j * rng.standard_normal(size))

    images = {}
    for name in pres["generators"]:
        rows = []
        for i in range(rung.n):
            terms = {(0,) * m: complex(np.exp(cplx()))}
            for k, z in enumerate(cplx(m)):
                powers = [0] * m
                powers[k] = 1
                terms[tuple(powers)] = complex(z)
            i1, i2 = rng.integers(0, m, size=2)
            powers = [0] * m
            powers[i1] += 1
            powers[i2] += 1
            terms[tuple(powers)] = terms.get(tuple(powers), 0) + complex(cplx())
            rows.append([_poly_json(terms) if j == i else []
                         for j in range(rung.n)])
        images[name] = rows
    return {
        "presentation": pres,
        "group": {"kind": "GL", "n": rung.n},
        "family": {
            "params": [f"s{k + 1}" for k in range(m)],
            "domain_radius": [FAMILY_RADIUS] * m,
            "images": images,
        },
    }


def payload(rung: Rung, rng) -> dict:
    if rung.command == "family":
        return family_payload(rung, rng)
    return point_payload(rung, rng)


def write_payload(path, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh)
