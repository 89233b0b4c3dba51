#!/usr/bin/env python3
"""The return probability P[0,t] computed three independent ways.

Route 1: run the symmetric-subspace walk and read off the level-0
         probability.
Route 2: evaluate the spectral sum 2^-n sum_m C(n,m) T_t(1 - 2m/n) and
         square it.
Route 3: for even t, integrate t * x^-1 J_t(x) cos^n(x/n) over [0, n pi/2]
         on the real axis, and the rest of the axis as one integral up the
         vertical ray z = n pi/2 + iy, with an error estimate for each part.

The three columns agree to the printed budgets; the real-axis segments between
the zeros of cos^n(x/n) also show why cancellation makes the integral small:
under each peak the integrand is orders of magnitude larger than the
segment's integral.
"""

from hypercube_walk import spectral, walk

N = 20


def main() -> None:
    p0_simulated = walk.scan([N], 28).p0[:, 0]
    print(f"n = {N}")
    print(f"{'t':>3} {'simulated':>13} {'chebyshev^2':>13} {'bessel^2':>13} {'ray error':>11}")
    ts = list(range(2, 29, 2))
    # the bulks share one Bessel table per quadrature rule; the rays take two
    # hankel1e calls per rule plus the shared upward recurrence
    for t, res in zip(ts, spectral.p0_amplitudes_bessel(N, ts)):
        simulated = p0_simulated[t]
        amp_c = spectral.p0_amplitude_chebyshev(N, t)
        print(f"{t:>3} {simulated:>13.6e} {amp_c * amp_c:>13.6e} "
              f"{res.amplitude**2:>13.6e} {res.ray_error:>11.2e}")

    print("\ncancellation inside one segment at t = 16:")
    import numpy as np

    from hypercube_walk.specfun import bessel_J

    for k in (1, 4, 20):
        seg = spectral.segment_integral(N, 16, k)
        xs = np.linspace(N * (k - 0.5) * np.pi, N * (k + 0.5) * np.pi, 4001)[1:-1]
        envelope = np.abs(bessel_J(16, xs) * np.cos(xs / N) ** N / xs)
        width = N * np.pi
        print(f"  segment {k:>2}: max |integrand| * width = {envelope.max() * width:.2e}, "
              f"but I_{k} = {seg.value:+.2e}  "
              f"(cancellation factor {envelope.max() * width / max(abs(seg.value), 1e-300):.1e})")
    print("  the oscillation of J_t under each peak of cos^n(x/n) wipes out")
    print("  almost everything; only the certified residue survives")


if __name__ == "__main__":
    main()
