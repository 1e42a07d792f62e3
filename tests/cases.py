"""Reference cases whose results are pinned bit for bit.

``tests/test_verify.py`` pins their steps and bits, and the CI workflow
prints the same runs from this file against both the pull request's tree
and its base.  It therefore imports only numpy and rswlab names that both
trees have.
"""

import math

import numpy as np

from rswlab.core import FlowParameters
from rswlab.solutions import (
    profile_gauss,
    pulsating_cylinder,
    pulsating_drop,
    stationary_ring,
    stationary_rotsym,
)

P = FlowParameters(1.0, 1.0)

#: The finite-volume oracle's reference runs; "study-100" is the coarse run of criterion 9's study.
FV_CASES = ("exact-cylinder", "exact-rotsym", "drop-masked", "study-100", "ring-dry")

#: (r0, theta0, t0, t1) of the pinned path of ``as_cartesian(catalog["pulsating-cylinder"])``.
CARTESIAN_CYLINDER_PATH = (0.9, 0.4, 0.0, 2 * math.pi)


def fv_case(case):
    """Arguments ``(field, t0, t1, n, keywords)`` of ``fv_oracle`` for a case of :data:`FV_CASES`."""
    cylinder = pulsating_cylinder(2.0, 1.0, P)
    drop = pulsating_drop(2.0, P)
    R = drop.meta["boundary_radius"]
    r_safe = 0.7 * min(R(t) for t in np.linspace(0.1, 0.3, 7))

    def mask(t1, X, Y):
        return np.hypot(X, Y) < r_safe

    return {
        "exact-cylinder": (cylinder, 0.0, 0.25, 40, dict(box=(-2.0, 2.0))),
        "exact-rotsym": (stationary_rotsym(profile_gauss(0.5), 1.0, P), 0.0, 0.2, 16,
                         dict(box=(-2.0, 2.0))),
        "drop-masked": (drop, 0.1, 0.3, 40,
                        dict(box=(-2.0, 2.0), mask_fn=mask, dry_floor=True)),
        "study-100": (cylinder, 0.0, math.pi / 2.0, 100, {}),
        "ring-dry": (stationary_ring(1.0, 1.0, 1.0, FlowParameters(0.1, 1.0)), 0.0, 0.2, 32,
                     dict(box=(-3.0, 3.0), dry_floor=True)),
    }[case]


def one_path(name, catalog):
    """One path of criterion 6's plan for a catalog family: (r0, theta0, t0, t1)."""
    field = catalog[name]
    w0 = 1 - math.cos(1.2)
    if name == "stationary-ring":
        b = field.meta["bounds"]
        r0 = 0.5 * (b.r_inner + b.r_outer)
        U0 = float(field.values_unchecked(0.0, r0, 0.0)[0])
        return r0, 2.1, 0.0, min(field.params.period, 0.35 * (b.r_outer - r0) / U0)
    if name == "collapse-contact":
        return math.sqrt(w0 / (0.4 * field.meta["lam_max"])), 2.1, 1.2, 4.8
    if name == "collapse-contact-cubic":
        return math.sqrt(w0 / (0.4 * field.meta["lam_c"])), 2.1, 1.2, 4.2
    if name == "collapse-scaling":
        return 0.97, 2.1, 0.0, 0.85 * field.meta["tabulation"].Tstar
    if name == "constant-sw-image":
        return 0.7, 2.1, 0.7, 5.6
    return 0.97, 2.1, 0.0, 2 * math.pi
