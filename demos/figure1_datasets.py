#!/usr/bin/env python3
"""Reproduce the four dispersion datasets for the hypercube walk.

Panel 1: max_x P(x,t) over a full scan at n = 50, showing the drop to the
         ~1e-14 floor and the climb back up.
Panel 2: the step count t_min(n) minimizing that maximum, against the
         linear fit -0.754 + 0.849 n.
Panel 3: the minimum itself against the envelope 5 * 1.93^-n.
Panel 4: on even steps the maximum sits at the start vertex until the
         minimum is reached.

Writes the same CSVs the CLI produces into demo_output/.
"""

import pathlib

from hypercube_walk import bounds, cli, walk

OUT = pathlib.Path(__file__).resolve().parent / "demo_output"


def main() -> None:
    print("=== scan at n = 50 ===")
    profile = walk.profile(50, 100)
    t_best, p_best = walk.t_min(profile.max_vertex_prob)
    print(f"minimum of max_x P(x,t): {p_best:.3e} at t = {t_best}")
    print(f"uniform-distribution floor 2^-50 = {2.0**-50:.3e}")
    print(f"envelope 5 * 1.93^-50       = {bounds.figure1_envelope(50):.3e}")

    print("\n=== t_min versus the linear fit, n = 10..50 ===")
    print(f"{'n':>4} {'t_min':>6} {'fit':>8} {'min prob':>12} {'envelope':>12}")
    dims = range(10, 51, 5)
    max_vertex_prob = walk.scan(dims, 100).max_vertex_prob
    for column, n in enumerate(dims):
        t_n, p_n = walk.t_min(max_vertex_prob[:, column])
        fit = bounds.figure1_fit(n)
        print(f"{n:>4} {t_n:>6} {fit:>8.2f} {p_n:>12.3e} {bounds.figure1_envelope(n):>12.3e}")

    print("\n=== even steps before the minimum keep the maximum at 0^n ===")
    levels = sorted(set(profile.argmax_w[:t_best:2].tolist()))
    print(f"argmax levels seen on even t < {t_best}: {levels}")
    print(f"at t = {t_best} the maximum moves to level {profile.argmax_w[t_best]}")

    print("\nwriting CSVs to", OUT)
    OUT.mkdir(exist_ok=True)
    cli.main(["simulate", "--n", "50", "--t-max", "100",
              "--out", str(OUT / "scan_n50.csv")])
    cli.main(["figure1", "--n-min", "10", "--n-max", "50",
              "--out", str(OUT / "tmin_fit_envelope.csv")])
    print("done")


if __name__ == "__main__":
    main()
