#!/usr/bin/env python3
"""Check every closed-form dispersion bound against computed quantities.

Covers the three-part integral estimate (tail, middle, bulk), the level
amplification inequality on a simulated trajectory, the desk-scale
1.4818^-n rate with an empirically calibrated constant, and the fixed
analytic constants (ray integrals, the Im g ceiling, the variation bound,
the equilibrium exponent ratio).
"""

from math import floor, pi

from hypercube_walk import bounds, specfun, walk


def show(report: bounds.BoundReport) -> None:
    flag = "ok " if report.passed else "FAIL"
    print(f"  [{flag}] {report.name:<24} computed {report.computed:>12.4e}"
          f"  bound {report.bound:>12.4e}  margin {report.margin:>12.4e}")


def main() -> None:
    print("=== three-part integral estimate, n = 20, 28, 36 ===")
    pairs = [(n, floor(bounds.BoundParams.t_coeff * n)) for n in (20, 28, 36)]
    reports = bounds.theorem2_bounds(pairs)
    for i, (n, nu) in enumerate(pairs):
        print(f"n = {n}, order {nu}:")
        for report in reports[3 * i:3 * i + 3]:
            show(report)

    print("\n=== level amplification at n = 12 (worst pairs shown) ===")
    reports = [r for r in bounds.lemma1_empirical_reports(12) if r.name.startswith("lemma1_t")]
    tightest = sorted(reports, key=lambda r: r.margin)[:5]
    for report in tightest:
        show(report)
    coin, shift = bounds.lemma1_chain_margins(walk.trajectory(12, 21))
    print(f"  per-step inequality slacks: coin {coin:.2e}, shift {shift:.2e}")

    print("\n=== desk-scale rate with C calibrated at n = 10 ===")
    dims = (10, 25, 40, 50)
    rate_rows = bounds.theorem1_check(dims)[::2]
    print(f"  C = {rate_rows[0].bound * bounds.BoundParams.rate**dims[0]:.5f}")
    for report in rate_rows:
        show(report)

    print("\n=== fixed analytic constants ===")
    ray_34, ray_54 = specfun.beta_half_integrals(1.0)
    print(f"  ray integral (3/4 power) at a=1: {ray_34:.6f}")
    print(f"  ray integral (5/4 power) at a=1: {ray_54:.6f}")
    print(f"  variation bound at c = pi/2:     {specfun.variation_bound(pi / 2):.6f}")
    print(f"  equilibrium level ratio:         {bounds.equilibrium_c():.6f}")
    entropy_rate = 2.0**bounds.binary_entropy(bounds.BoundParams.c)
    print(f"  2^H at that ratio:               {entropy_rate:.5f}")
    im_g = specfun.g_function(1.0 + 1j * specfun.g_ray_maximizer()).imag
    print(f"  max Im g on the critical ray:    {im_g:.6f}  (< 0.2607)")


if __name__ == "__main__":
    main()
