"""Boundary-integral trend across refinement levels, with a bad-radius
contrast.

For levels m = 3..6 of the four-corner measure: recertify a good radius near
a fixed target at each level (the pushforward changes with the level) and
report total_boundary_integral at that radius. For contrast, also report the
integral at an uncertified radius sitting exactly on a heavy distance value
(a distance carrying pushforward mass >= 1/lambda), where the boundary mass
concentrates at the sphere.
"""

from fractions import Fraction

from sio_lab.generators import GeneratorSpec, generate
from sio_lab.good_radii import (GoodSetParams, is_good_radius,
                                select_good_radius_near)
from sio_lab.kernels import KernelSpec
from sio_lab.measure import normalize, radial_pushforward
from sio_lab.operator import Ball, total_boundary_integral

LAM = 5
DEPTH = 3
TARGET = Fraction(2, 5)


def main() -> None:
    kernel = KernelSpec(family="coordinate_riesz", i=1, n=1)
    params = GoodSetParams(lam=LAM, depth=DEPTH)
    print(f"{'level':>5} {'good radius':>22} {'integral':>22} "
          f"{'bad radius':>12} {'bad integral':>22}")
    prev = None
    for level in range(3, 7):
        _cloud, m, _ = generate(GeneratorSpec(family="four_corner_cantor",
                                              level=level))
        m, _ = normalize(m)
        mu_z = radial_pushforward(m, 0)
        r = select_good_radius_near(mu_z, TARGET, params)
        assert is_good_radius(mu_z, r, params).ok
        good = total_boundary_integral(kernel, m, Ball(0, float(r)))

        # contrast: the heaviest distance value (its cell is heavy at some
        # generation <= depth, so certification rejects it)
        bad_pos, _ = max(((p, w) for p, w in zip(mu_z.positions,
                                                  mu_z.masses)
                          if 0 < p < 1), key=lambda pw: pw[1])
        rej = is_good_radius(mu_z, bad_pos, params)
        assert not rej.ok
        bad = total_boundary_integral(kernel, m, Ball(0, float(bad_pos)))

        ratio = "" if prev is None else f"  (ratio {good / prev:.3f})"
        print(f"{level:>5} {float(r):>22.16f} {good:>22.16f} "
              f"{float(bad_pos):>12.6f} {bad:>22.16f}{ratio}")
        prev = good


if __name__ == "__main__":
    main()
