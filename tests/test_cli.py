"""CSV command-line interface: schemas, values, exit codes, determinism."""

import argparse
import csv
import functools
import importlib
import importlib.util
import json
import math
import os
import pathlib
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import oracles
from hypercube_walk import bounds, cli, full, specfun, spectral, walk


def run(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = cli.main([*argv, "--out", str(out)])
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    return code, text


def rows_of(text):
    return list(csv.reader(text.strip().splitlines()))


def test_simulate_n2(tmp_path):
    code, text = run(tmp_path, "simulate", "--n", "2", "--t-max", "2")
    assert code == 0
    rows = rows_of(text)
    assert rows[0] == ["t", "p0", "max_vertex_prob", "argmax_w"]
    assert [r[2] for r in rows[1:]] == ["1.0", "0.5", "1.0"]
    assert rows[1][1] == "1.0"


def test_simulate_parity_filter(tmp_path):
    code, text = run(tmp_path, "simulate", "--n", "4", "--t-max", "6", "--parity", "even")
    assert code == 0
    ts = [int(r[0]) for r in rows_of(text)[1:]]
    assert ts == [0, 2, 4, 6]


def test_simulate_n50_minimum_row(tmp_path):
    code, text = run(tmp_path, "simulate", "--n", "50", "--t-max", "100")
    assert code == 0
    rows = rows_of(text)[1:]
    best = min(rows, key=lambda r: float(r[2]))
    assert abs(int(best[0]) - 42) <= 2
    assert 1e-15 <= float(best[2]) <= 1e-13


@pytest.mark.parametrize("parity", ["all", "even", "odd"])
@pytest.mark.parametrize("n, t_max", [(60, 300), (1, 7), (5, 0)])
def test_simulate_rows_are_the_scan_profile(tmp_path, parity, n, t_max):
    code, text = run(tmp_path, "simulate", "--n", str(n), "--t-max", str(t_max),
                     "--parity", parity)
    assert code == 0
    p0, peak, argmax = (field[:, 0].tolist() for field in oracles.stepwise_scan([n], t_max))
    expected = "".join(
        f"{t},{p0[t]!r},{peak[t]!r},{argmax[t]}\n"
        for t in range(t_max + 1) if parity == "all" or t % 2 == (parity == "odd"))
    assert text == "t,p0,max_vertex_prob,argmax_w\n" + expected


def test_cell_formatter():
    cells = [0.1, -0.0, 1e-300, float("inf"), np.float64(0.1), np.float32(0.5), True,
             np.bool_(False), 7, np.intp(-3), None, "skip:x"]
    assert [cli._fmt(cell) for cell in cells] == [
        "0.1", "-0.0", "1e-300", "inf", "0.1", "0.5", "true", "false", "7", "-3", "", "skip:x"]


def test_emit_formats_every_cell_as_the_cell_formatter(capsys):
    cells = [0.1, -0.0, 1e-300, float("nan"), np.float64(0.1), np.float32(0.5), True,
             np.bool_(False), 7, -(2**70), np.intp(-3), None, "skip:x"]
    cli._emit(["c"] * len(cells), [cells], None)
    assert capsys.readouterr().out.splitlines()[1] == ",".join(cli._fmt(c) for c in cells)


def test_emit_formats_a_mixed_column_as_the_cell_formatter_and_refuses_a_ragged_row(capsys):
    # a column of exactly float or exactly int cells takes their repr; a
    # column mixing those with numpy scalars, bools or None takes _fmt
    rows = [[0.1, 7, True, None, 2], [np.float64(0.2), -(2**70), 1, 0.5, 3],
            [-0.0, np.intp(3), False, "x", 4]]
    cli._emit(list("abcde"), rows, None)
    assert capsys.readouterr().out.splitlines()[1:] == [",".join(map(cli._fmt, r)) for r in rows]
    with pytest.raises(ValueError):
        cli._emit(["a", "b"], [[1, 2], [3]], None)
    assert capsys.readouterr().out == ""


def test_simulate_refuses_oversized_dimension(tmp_path):
    code, _ = run(tmp_path, "simulate", "--n", "61", "--t-max", "5")
    assert code == 2


def test_simulate_requires_n(tmp_path):
    code, _ = run(tmp_path, "simulate")
    assert code == 2


def test_figure1_small_range(tmp_path):
    code, text = run(tmp_path, "figure1", "--n-min", "10", "--n-max", "14")
    assert code == 0
    rows = rows_of(text)
    assert rows[0] == ["n", "t_min", "p_at_tmin", "fit_t", "envelope"]
    for row in rows[1:]:
        n, t_min, p, fit, envelope = int(row[0]), int(row[1]), *map(float, row[2:])
        assert abs(t_min - fit) <= 2
        assert 0.0 < p <= envelope


def test_figure1_default_range_is_10_to_50(tmp_path):
    code, text = run(tmp_path, "figure1")
    assert code == 0
    ns = [int(r[0]) for r in rows_of(text)[1:]]
    assert ns[0] == 10 and ns[-1] == 50 and len(ns) == 41


def test_figure1_smoke_row_at_n2(tmp_path):
    code, text = run(tmp_path, "figure1", "--n-min", "2", "--n-max", "2")
    assert code == 0
    row = rows_of(text)[1]
    assert int(row[0]) == 2 and len(row) == 5
    assert float(row[2]) > 0.0


@pytest.mark.parametrize("parity", ["all", "even", "odd"])
def test_figure1_default_horizons_match_per_n_scans(tmp_path, parity):
    # default horizons are max(100, 2n), so this range crosses from 100 to 2n
    code, text = run(tmp_path, "figure1", "--n-min", "45", "--n-max", "55", "--parity", parity)
    assert code == 0
    rows = rows_of(text)[1:]
    assert [int(r[0]) for r in rows] == list(range(45, 56))
    for row in rows:
        n = int(row[0])
        column = walk.scan([n], max(100, 2 * n)).max_vertex_prob[:, 0]
        assert (int(row[1]), float(row[2])) == walk.t_min(column, parity=parity)


def test_figure1_rejects_bad_range(tmp_path, capsys):
    assert run(tmp_path, "figure1", "--n-min", "12", "--n-max", "10")[0] == 2
    assert run(tmp_path, "figure1", "--n-min", "2", "--n-max", "70")[0] == 2
    assert capsys.readouterr().err.endswith(
        "error: n=70 exceeds the double-precision validity cap (60); "
        "results would be noise-limited\n")
    assert run(tmp_path, "figure1", "--n-min", "1", "--n-max", "5")[0] == 2
    assert capsys.readouterr().err == "error: figure1 needs n >= 2, got 1\n"


@pytest.mark.parametrize("n", [1, 2, 13, 60])
def test_p0_simulated_column_is_the_scan_arrays_p0(tmp_path, n):
    t_max = 2 * n + 10
    code, text = run(tmp_path, "p0", "--n", str(n), "--t-max", str(t_max), "--method", "simulate")
    assert code == 0
    expected = walk.scan([n], t_max).p0[:, 0].tolist()
    assert [float(r[2]) for r in rows_of(text)[1:]] == expected


def test_p0_t0_row(tmp_path):
    code, text = run(tmp_path, "p0", "--n", "5", "--t-max", "0")
    assert code == 0
    rows = rows_of(text)
    assert rows[0] == ["n", "t", "p0_simulated", "amp_chebyshev", "amp_bessel",
                       "tail_bound", "agree"]
    row = rows[1]
    assert float(row[2]) == pytest.approx(1.0, abs=1e-12)
    assert float(row[3]) == pytest.approx(1.0, abs=1e-12)
    assert row[4] == "" and row[5] == ""
    assert row[6] == "true"


def test_p0_n2_values_near_zero(tmp_path):
    code, text = run(tmp_path, "p0", "--n", "2", "--t-max", "2")
    assert code == 0
    last = rows_of(text)[-1]
    assert float(last[2]) == pytest.approx(0.0, abs=1e-15)
    assert float(last[3]) == pytest.approx(0.0, abs=1e-14)
    assert float(last[4]) <= float(last[5]) + 1e-9
    assert last[6] == "true"


def test_p0_agreement_n10(tmp_path):
    code, text = run(tmp_path, "p0", "--n", "10", "--t-max", "8")
    assert code == 0
    rows = rows_of(text)
    assert all(r[6] == "true" for r in rows[1:])
    even_row = rows[1 + 8]
    assert even_row[4] != ""  # bessel column filled at t = 8


def test_p0_bessel_method_prints_lowercase_agree(tmp_path):
    # without the Chebyshev column the budget check compares against the
    # square root of the simulated p0
    code, text = run(tmp_path, "p0", "--n", "10", "--t-max", "8", "--method", "bessel")
    assert code == 0
    rows = rows_of(text)
    assert len(rows) == 10
    assert all(r[6] in ("true", "false") for r in rows[1:])


def test_p0_bessel_method_with_odd_parity_refused(tmp_path):
    code, _ = run(tmp_path, "p0", "--n", "10", "--t-max", "9",
                  "--method", "bessel", "--parity", "odd")
    assert code == 2


@pytest.mark.parametrize("method", [None, "chebyshev", "bessel", "simulate"])
@pytest.mark.parametrize("k_max", [3, 40, 7000])
def test_p0_has_no_k_max_option(monkeypatch, capsys, method, k_max):
    # the Bessel route truncates nothing, so there is no segment count to set;
    # every method refuses the option before any Bessel work starts
    def never(*args, **kwargs):
        raise AssertionError("no Bessel work may start before --k-max is refused")

    monkeypatch.setattr(spectral, "axis_integrals", never)
    monkeypatch.setattr(spectral, "ray_integrals", never)
    argv = ["p0", "--n", "10", "--t-max", "4", "--k-max", str(k_max)]
    assert cli.main(argv + (["--method", method] if method else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: --k-max {k_max}" in captured.err


def test_verify_theorem2(tmp_path):
    code, text = run(tmp_path, "verify", "--suite", "theorem2", "--n", "20")
    assert code == 0
    rows = rows_of(text)
    assert rows[0] == ["name", "n", "nu", "computed", "bound", "margin", "pass"]
    assert len(rows) == 4
    assert {r[0] for r in rows[1:]} == {"theorem2_tail", "theorem2_middle", "theorem2_bulk"}
    assert all(r[6] == "true" for r in rows[1:])


def test_verify_theorem2_middle_passes_where_the_segment_sum_hit_the_float_floor(tmp_path):
    # summing the n - 1 middle segments gave 8.81e-14 against the bound
    # 8.61e-14 at n = 94; the ray up n pi/2 + iy less the chain from k = n passes
    code, text = run(tmp_path, "verify", "--suite", "theorem2", "--n-min", "94", "--n-max", "100")
    assert code == 0
    rows = rows_of(text)
    assert [int(r[1]) for r in rows[1::3]] == list(range(94, 101))
    assert all(r[6] == "true" for r in rows[1:])


def test_verify_theorem2_skips_inadmissible(tmp_path):
    code, text = run(tmp_path, "verify", "--suite", "theorem2",
                     "--n-min", "2", "--n-max", "4")
    rows = rows_of(text)
    assert any(r[6].startswith("skip:") for r in rows[1:])
    assert code == 0  # skips are not failures


def test_verify_theorem2_prints_the_one_pair_rows_in_n_order(capsys):
    # one batched call behind the suite; the CSV is the one-pair calls' rows
    # with the skip rows of n = 1..3 in place
    lines = [",".join(bounds.CSV_HEADER)]
    passed = True
    for n in range(1, 46):
        nu = int(np.floor(bounds.BoundParams.t_coeff * n))
        if not bounds.theorem2_admissible(n, nu):
            lines.append(f"theorem2_skip,{n},{nu},,,,skip:inadmissible (n, nu, alpha)")
            continue
        for report in bounds.theorem2_bounds([(n, nu)]):
            lines.append(",".join(cli._fmt(cell) for cell in report.csv_row()))
            passed = passed and report.passed
    assert [line.split(",")[1] for line in lines[1:4]] == ["1", "2", "3"]
    code = cli.main(["verify", "--suite", "theorem2", "--n-min", "1", "--n-max", "45"])
    assert capsys.readouterr().out == "\n".join(lines) + "\n"
    assert code == (0 if passed else 1)


@pytest.mark.parametrize("short, long, keep", [
    (["p0", "--n", "60", "--t-max", "40", "--method", "bessel", "--parity", "even"],
     ["p0", "--n", "60", "--t-max", "92", "--method", "bessel", "--parity", "even"],
     lambda row: int(row.split(",")[1]) <= 40),
    (["verify", "--suite", "theorem2", "--n", "30"],
     ["verify", "--suite", "theorem2", "--n-min", "4", "--n-max", "40"],
     lambda row: row.split(",")[1] == "30"),
], ids=["p0-t-max", "theorem2-range"])
def test_rows_do_not_depend_on_the_rest_of_the_command(capsys, short, long, keep):
    # a dimension's Bessel table starts Miller's sweep from its largest
    # admissible order, whichever orders and dimensions share the batch
    assert cli.main(short) == 0
    alone = capsys.readouterr().out.splitlines()
    assert cli.main(long) == 0
    batched = capsys.readouterr().out.splitlines()
    assert alone == batched[:1] + [row for row in batched[1:] if keep(row)]
    assert len(alone) > 2


@pytest.mark.parametrize("argv", [
    ["p0", "--n", "10", "--t-max", "6", "--method", "bessel"],
    ["verify", "--suite", "theorem2", "--n", "20"],
], ids=["p0-bessel", "verify-theorem2"])
def test_uncertified_quadrature_is_exit_2_without_traceback(monkeypatch, capsys, argv):
    def refuse(k, value, err):
        raise ArithmeticError(f"quadrature for segment {k} did not converge")

    monkeypatch.setattr(spectral, "_converged", refuse)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: quadrature for segment ")
    assert "Traceback" not in captured.err


def test_memory_error_is_exit_2_without_traceback(monkeypatch, capsys):
    # a horizon too large for memory; the allocation is simulated, since a
    # real one can succeed on an overcommitting kernel and fail much later
    def refuse(n, t_max):
        raise MemoryError(f"Unable to allocate arrays for {t_max + 1} steps")

    monkeypatch.setattr(walk, "profile", refuse)
    assert cli.main(["simulate", "--n", "60", "--t-max", "100000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Unable to allocate arrays for 100000000001 steps\n"


@pytest.mark.parametrize("command", ["cross-validate", "simulate", "figure1", "p0"])
def test_negative_horizon_is_exit_2_without_traceback(capsys, command):
    assert cli.main([command, "--n", "3", "--t-max", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: t_max must be >= 0, got -2\n"


def test_figure1_without_a_candidate_step_is_exit_2(capsys):
    assert cli.main(["figure1", "--n", "4", "--t-max", "0", "--parity", "odd"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: empty profile\n"


def test_figure1_fit_and_envelope_come_from_bounds(tmp_path):
    code, text = run(tmp_path, "figure1", "--n-min", "2", "--n-max", "60")
    assert code == 0
    for row in rows_of(text)[1:]:
        n = int(row[0])
        assert row[3:] == [repr(bounds.figure1_fit(n)), repr(bounds.figure1_envelope(n))]


def test_verify_lemma1(tmp_path):
    code, text = run(tmp_path, "verify", "--suite", "lemma1", "--n", "12")
    assert code == 0
    rows = rows_of(text)
    assert all(r[6] == "true" for r in rows[1:])
    assert len(rows) == 1 + 21 * 6 + 2


def test_verify_lemma1_reads_the_dimension_range(tmp_path):
    code, text = run(tmp_path, "verify", "--suite", "lemma1", "--n-min", "5", "--n-max", "6")
    assert code == 0
    rows = rows_of(text)[1:]
    assert [r[0] for r in rows[-2:]] == ["lemma1_coin_step_margin", "lemma1_shift_step_margin"]
    assert sorted({int(r[1]) for r in rows}) == [5, 6]
    assert run(tmp_path, "verify", "--suite", "lemma1")[1] == run(
        tmp_path, "verify", "--suite", "lemma1", "--n", "12")[1]


@pytest.mark.parametrize("n", [1, 2])
def test_verify_lemma1_skips_the_chain_margins_below_n3(tmp_path, n):
    # no level 0 < w < n/2 exists, so the margins would be minima over nothing
    code, text = run(tmp_path, "verify", "--suite", "lemma1", "--n", str(n))
    assert code == 0
    rows = rows_of(text)[1:]
    assert len(rows) == 21 + 2
    assert all(r[0].startswith("lemma1_t") and r[6] == "true" for r in rows[:-2])
    reason = f"skip:no level 0 < w < n/2 at n={n}"
    assert rows[-2:] == [["lemma1_coin_step_margin", str(n), "", "", "", "", reason],
                         ["lemma1_shift_step_margin", str(n), "", "", "", "", reason]]
    assert not any("inf" in cell for row in rows for cell in row)


def test_verify_appendix_refuses_dimension_options(capsys):
    for option in ("--n", "--n-min", "--n-max"):
        assert cli.main(["verify", "--suite", "appendix", option, "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the appendix suite takes no --n, --n-min or --n-max\n"


def test_verify_theorem1_small_range(tmp_path):
    code, text = run(tmp_path, "verify", "--suite", "theorem1",
                     "--n-min", "10", "--n-max", "14")
    assert code == 0
    rows = rows_of(text)
    assert all(r[6] == "true" for r in rows[1:])


@pytest.mark.parametrize("argv, code", [
    (["--n-min", "10", "--n-max", "60"], 0),
    ([], 0),
    (["--n", "2"], 0),
    (["--n-min", "1", "--n-max", "5"], 2),
])
def test_verify_theorem1_steps_the_walk_in_one_scan(monkeypatch, capsys, argv, code):
    calls = []
    scan = walk.scan

    def counted(ns, t_max):
        calls.append(list(ns))
        return scan(ns, t_max)

    monkeypatch.setattr(walk, "scan", counted)
    assert cli.main(["verify", "--suite", "theorem1", *argv]) == code
    if code == 0:
        assert len(calls) == 1
    else:
        # n < 2 is refused before any stepping
        assert calls == []
        assert capsys.readouterr().err == "error: dimension must be >= 2, got 1\n"


def test_verify_theorem1_refuses_beyond_precision_cap(capsys):
    assert cli.main(["simulate", "--n", "61", "--t-max", "5"]) == 2
    simulate_err = capsys.readouterr().err
    assert cli.main(["verify", "--suite", "theorem1", "--n-min", "59", "--n-max", "61"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == simulate_err == (
        "error: n=61 exceeds the double-precision validity cap (60); "
        "results would be noise-limited\n"
    )


def test_p0_refuses_beyond_precision_cap_like_simulate(capsys):
    assert cli.main(["simulate", "--n", "61", "--t-max", "5"]) == 2
    simulate_err = capsys.readouterr().err
    assert cli.main(["p0", "--n", "61"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == simulate_err == (
        "error: n=61 exceeds the double-precision validity cap (60); "
        "results would be noise-limited\n"
    )


_P0_N, _P0_T_MAX = 12, 21


@functools.lru_cache(maxsize=None)
def _p0_bessel_row(t):
    return spectral.p0_amplitude_bessel(_P0_N, t)


@pytest.mark.parametrize("parity", ["all", "even", "odd"])
@pytest.mark.parametrize("method", [None, "chebyshev", "bessel", "simulate"])
def test_p0_cells_are_the_spectral_values(tmp_path, method, parity):
    argv = ["p0", "--n", str(_P0_N), "--t-max", str(_P0_T_MAX), "--parity", parity]
    code, text = run(tmp_path, *argv, *(["--method", method] if method else []))
    if method == "bessel" and parity == "odd":  # no step of the Bessel route
        assert (code, text) == (2, "")
        return
    rows = rows_of(text)[1:]
    assert [int(r[1]) for r in rows] == list(range(_P0_T_MAX + 1)[walk._parity_steps(parity)])
    bessel_steps = spectral.bessel_steps(_P0_N, range(_P0_T_MAX + 1))
    for row in rows:
        t = int(row[1])
        cheb = method in (None, "chebyshev")
        bessel = method in (None, "bessel") and t in bessel_steps
        assert row[3] == (repr(spectral.p0_amplitude_chebyshev(_P0_N, t)) if cheb else "")
        assert row[4] == (repr(_p0_bessel_row(t).amplitude) if bessel else "")
        assert row[5] == (repr(_p0_bessel_row(t).ray_error) if bessel else "")
        assert row[6] in ("true", "false")
    assert code == (0 if all(row[6] == "true" for row in rows) else 1)


@pytest.mark.parametrize("suite", ["theorem1", "theorem2"])
@pytest.mark.parametrize("n_range", [("30", "20"), ("0", "2")], ids=["empty", "from-zero"])
def test_verify_refuses_empty_or_non_positive_range(capsys, suite, n_range):
    lo, hi = n_range
    assert cli.main(["verify", "--suite", suite, "--n-min", lo, "--n-max", hi]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad dimension range [{lo}, {hi}]\n"


def test_verify_appendix(tmp_path):
    code, text = run(tmp_path, "verify", "--suite", "appendix")
    assert code == 0
    rows = rows_of(text)
    names = [r[0] for r in rows[1:]]
    assert "im_g_max_on_ray" in names
    im_row = rows[1 + names.index("im_g_max_on_ray")]
    assert float(im_row[3]) == pytest.approx(0.26066, abs=1e-4)
    assert im_row[6] == "true"
    by_name = {r[0]: r for r in rows[1:]}
    for name in ("beta_ray_3_4_relerr", "beta_ray_5_4_relerr", "cos_gaussian_grid",
                 "equilibrium_c_dev", "entropy_rate_dev", "f_ray_envelope"):
        assert by_name[name][6] == "true"


@pytest.mark.parametrize("stop, num", [(math.pi / 2 - 1e-9, 100001), (1.0, 2),
                                       (3.0, cli._GRID_CHUNK), (0.7, cli._GRID_CHUNK + 1),
                                       (2.5, 2 * cli._GRID_CHUNK + 1)])
def test_appendix_grid_chunks_are_linspace_bit_for_bit(stop, num):
    chunks = list(cli._grid_chunks(stop, num))
    assert all(0 < chunk.size <= cli._GRID_CHUNK for chunk in chunks)
    assert np.concatenate(chunks).tobytes() == np.linspace(0.0, stop, num).tobytes()


def test_appendix_im_g_row_is_the_ray_supremum():
    import mpmath

    args = argparse.Namespace(n=None, n_min=None, n_max=None)
    row = next(r for r in cli._verify_appendix(args)
               if isinstance(r, bounds.BoundReport) and r.name == "im_g_max_on_ray")
    assert row.computed == specfun.g_function(1.0 + 1j * specfun.g_ray_maximizer()).imag
    # the 400,001-point grid the row once took its maximum from sits just below
    grid = specfun.g_function(1.0 + 1j * np.linspace(1e-8, 60.0, 400001)).imag.max()
    assert grid <= row.computed <= grid + 1e-9
    # the supremum from the zero of d/dy Im g(1 + iy) = Re g'(z) at 30 digits,
    # found without the cubic that g_ray_maximizer solves
    with mpmath.workdps(30):
        def im_g_slope(y):
            z = 1 + 1j * y
            return 1 - mpmath.re(mpmath.sqrt(z * z - 1) / z)

        z = 1 + 1j * mpmath.findroot(im_g_slope, 0.87)
        supremum = float(mpmath.im(z - mpmath.sqrt(z * z - 1) + mpmath.acos(1 / z)))
    assert abs(row.computed - supremum) <= 2 * math.ulp(supremum)


def test_appendix_evaluates_g_once_at_a_scalar(tmp_path, monkeypatch):
    calls = []
    g_function = specfun.g_function

    def counted(z):
        calls.append(z)
        return g_function(z)

    monkeypatch.setattr(specfun, "g_function", counted)
    code, _ = run(tmp_path, "verify", "--suite", "appendix")
    assert code == 0
    assert len(calls) == 1
    assert np.ndim(calls[0]) == 0


def test_cross_validate(tmp_path):
    code, text = run(tmp_path, "cross-validate", "--n-min", "1", "--n-max", "3",
                     "--t-max", "10")
    assert code == 0
    rows = rows_of(text)
    assert rows[0] == ["n", "t", "max_discrepancy"]
    assert all(float(r[2]) <= 1e-10 for r in rows[1:])


def test_cross_validate_n1_deterministic_walk(tmp_path):
    code, text = run(tmp_path, "cross-validate", "--n", "1", "--t-max", "2")
    assert code == 0
    assert all(float(r[2]) == 0.0 for r in rows_of(text)[1:])


def test_cross_validate_rows_equal_per_row_reduction(tmp_path):
    # reference: one discrepancy reduction per (n, t) row, as a loop
    code, text = run(tmp_path, "cross-validate", "--n-min", "1", "--n-max", "6",
                     "--t-max", "30")
    assert code == 0
    expected = []
    for n in range(1, 7):
        dense = full.full_start(n)
        for t, amps in enumerate(walk.trajectory(n, 30)):
            diff = float(np.max(np.abs(full.project_symmetric(dense) - amps)))
            expected.append([str(n), str(t), repr(diff)])
            dense = full.full_step(dense)
    assert rows_of(text)[1:] == expected


@pytest.mark.parametrize("bad_n", [2, 3])
def test_cross_validate_nan_discrepancy_exits_1(tmp_path, monkeypatch, bad_n):
    # a NaN in the oracle is no agreement, whether a 0.0 came before it or not
    trajectory = full.trajectory

    def poisoned(n, t_max):
        projected = trajectory(n, t_max)
        if n == bad_n:
            projected[1, 0, 0] = np.nan
        return projected

    monkeypatch.setattr(full, "trajectory", poisoned)
    code, text = run(tmp_path, "cross-validate", "--n-min", "1", "--n-max", "3",
                     "--t-max", "4")
    assert code == 1
    assert [bad_n, 1, "nan"] in [[int(n), int(t), d] for n, t, d in rows_of(text)[1:]]


def test_cross_validate_refuses_beyond_oracle_cap(tmp_path):
    assert run(tmp_path, "cross-validate", "--n", "13")[0] == 2


def test_equilibrium(tmp_path):
    code, text = run(tmp_path, "equilibrium")
    assert code == 0
    rows = rows_of(text)
    assert rows[0] == ["quantity", "value"]
    assert rows[1][0] == "equilibrium_c"
    assert float(rows[1][1]) == pytest.approx(0.133682, abs=1e-5)


def test_p0_method_selectors(tmp_path):
    code, text = run(tmp_path, "p0", "--n", "6", "--t-max", "4", "--method", "chebyshev")
    assert code == 0
    rows = rows_of(text)
    assert all(r[4] == "" and r[5] == "" for r in rows[1:])  # no bessel columns
    assert all(r[3] != "" for r in rows[1:])
    code, text = run(tmp_path, "p0", "--n", "6", "--t-max", "4", "--method", "simulate")
    assert code == 0
    rows = rows_of(text)
    assert all(r[3] == "" and r[4] == "" for r in rows[1:])
    code, text = run(tmp_path, "p0", "--n", "6", "--t-max", "4", "--method", "bessel")
    assert code == 0
    rows = rows_of(text)
    filled = [r for r in rows[1:] if r[4] != ""]
    assert [int(r[1]) for r in filled] == [2, 4]


def test_figure1_even_parity_restricts_t_min(tmp_path):
    code, text = run(tmp_path, "figure1", "--n-min", "10", "--n-max", "13",
                     "--parity", "even")
    assert code == 0
    assert all(int(r[1]) % 2 == 0 for r in rows_of(text)[1:])


def test_cross_validate_single_n_flag(tmp_path):
    code, text = run(tmp_path, "cross-validate", "--n", "4", "--t-max", "6")
    assert code == 0
    assert {int(r[0]) for r in rows_of(text)[1:]} == {4}


def test_verify_theorem1_row_names(tmp_path):
    _, text = run(tmp_path, "verify", "--suite", "theorem1",
                  "--n-min", "10", "--n-max", "11")
    names = [r[0] for r in rows_of(text)[1:]]
    assert names == ["theorem1_rate", "figure1_envelope"] * 2


def test_stdout_emission(capsys):
    assert cli.main(["equilibrium"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("quantity,value\n")


def test_unknown_flag_is_usage_error():
    assert cli.main(["simulate", "--n", "2", "--bogus"]) == 2


def test_foreign_option_is_reported_with_the_command_usage(capsys):
    assert cli.main(["cross-validate", "--n", "3", "--parity", "even"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: hypercube-walk cross-validate [-h]")
    assert "--t-max T_MAX" in captured.err
    assert captured.err.endswith(
        "hypercube-walk cross-validate: error: unrecognized arguments: --parity even\n")


def test_csv_ends_with_lf_and_no_crlf(tmp_path):
    _, text = run(tmp_path, "simulate", "--n", "3", "--t-max", "1")
    assert text.endswith("\n")
    assert "\r" not in text


COMMANDS = [
    ["simulate", "--n", "8", "--t-max", "12"],
    ["figure1", "--n-min", "10", "--n-max", "12"],
    ["p0", "--n", "6", "--t-max", "6"],
    ["verify", "--suite", "appendix"],
    ["verify", "--suite", "theorem2", "--n", "12"],
    ["cross-validate", "--n-min", "1", "--n-max", "4", "--t-max", "8"],
    ["equilibrium"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0] + "-" + a[-1])
def test_byte_identical_reruns(tmp_path, argv):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli.main([*argv, "--out", str(first)]) == 0
    assert cli.main([*argv, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


# ---------------------------------------------------------------------------
# start-up: no command loads scipy or numpy.polynomial
# ---------------------------------------------------------------------------

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
REPORT_MODULES = "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"


def _modules_after(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", code + REPORT_MODULES], env=env,
                           capture_output=True, text=True, timeout=120, check=True)
    return set(json.loads(child.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_every_module_but_no_scipy():
    modules = _modules_after("import hypercube_walk.cli\n")
    assert not {m for m in modules if m.split(".")[0] == "scipy"}
    # the benchmark's tracer finds its targets through sys.modules
    for name in ("bounds", "full", "specfun", "spectral", "walk", "_quadrature", "cli"):
        assert f"hypercube_walk.{name}" in modules


def test_walk_commands_load_no_scipy():
    code = (
        "import contextlib, io\n"
        "from hypercube_walk import cli, spectral\n"
        "for argv in (['figure1', '--n-min', '2', '--n-max', '12'],\n"
        "             ['simulate', '--n', '12', '--t-max', '30'],\n"
        "             ['verify', '--suite', 'theorem1', '--n-min', '10', '--n-max', '12'],\n"
        "             ['verify', '--suite', 'lemma1', '--n', '6'],\n"
        "             ['cross-validate', '--n-min', '1', '--n-max', '4', '--t-max', '8'],\n"
        "             ['p0', '--n', '12', '--t-max', '20', '--method', 'chebyshev'],\n"
        "             ['p0', '--n', '12', '--t-max', '20', '--method', 'simulate']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "assert spectral.p0_amplitudes_bessel(12, []) == []\n"
        "assert [v.shape for v in spectral.ray_integrals([])] == [(0,), (0,)]\n"
    )
    assert not {m for m in _modules_after(code) if m.split(".")[0] == "scipy"}


def test_no_command_loads_scipy():
    # the Bessel and Hankel seeds are numpy-only, the segment tail bound a
    # closed form, and the Gauss-Legendre rules come from numpy.linalg
    code = (
        "import contextlib, io\n"
        "from hypercube_walk import cli\n"
        "for argv in (['p0', '--n', '12', '--t-max', '20'],\n"
        "             ['p0', '--n', '12', '--t-max', '20', '--method', 'bessel'],\n"
        "             ['p0', '--n', '12', '--t-max', '20', '--method', 'chebyshev'],\n"
        "             ['verify', '--suite', 'theorem2', '--n-min', '4', '--n-max', '12'],\n"
        "             ['verify', '--suite', 'appendix'],\n"
        "             ['verify', '--suite', 'theorem1', '--n-min', '10', '--n-max', '12'],\n"
        "             ['verify', '--suite', 'lemma1', '--n', '6'],\n"
        "             ['figure1', '--n-min', '2', '--n-max', '12'],\n"
        "             ['simulate', '--n', '12', '--t-max', '30'],\n"
        "             ['cross-validate', '--n-min', '1', '--n-max', '4', '--t-max', '8'],\n"
        "             ['equilibrium']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
    )
    modules = _modules_after(code)
    assert not {m for m in modules if m.split(".")[0] == "scipy"}
    assert not {m for m in modules if m.split(".")[:2] == ["numpy", "polynomial"]}


def test_appendix_suite_loads_no_scipy_integrate():
    # its ray integrals come from the in-repo panel quadrature
    code = (
        "import contextlib, io\n"
        "from hypercube_walk import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--suite', 'appendix']) == 0\n"
    )
    assert "scipy.integrate" not in _modules_after(code)


# ---------------------------------------------------------------------------
# tooling: the benchmark's tracer and the modules' exports name live objects
# ---------------------------------------------------------------------------

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


# each command declares only the options it reads
COMMAND_OPTIONS = {
    "simulate": {"--n", "--parity", "--out", "--t-max"},
    "figure1": {"--n", "--n-min", "--n-max", "--parity", "--out", "--t-max"},
    "p0": {"--n", "--parity", "--out", "--t-max", "--method"},
    "verify": {"--n", "--n-min", "--n-max", "--out", "--suite"},
    "cross-validate": {"--n", "--n-min", "--n-max", "--out", "--t-max"},
    "equilibrium": {"--out"},
}
# a valid call of each command, and a valid value of each option some command lacks
BASE_ARGV = {
    "simulate": ["--n", "3", "--t-max", "2"],
    "figure1": ["--n", "3", "--t-max", "2"],
    "p0": ["--n", "3", "--t-max", "2"],
    "verify": ["--suite", "lemma1", "--n", "3"],
    "cross-validate": ["--n", "2", "--t-max", "2"],
    "equilibrium": [],
}
SHARED_OPTIONS = {"--n": "3", "--n-min": "3", "--n-max": "3", "--parity": "even"}


def test_each_command_declares_only_the_options_it_reads():
    parser = cli._build_parser()
    (commands,) = [a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert set(commands) == set(COMMAND_OPTIONS)
    for command, sub in commands.items():
        options = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        assert options == COMMAND_OPTIONS[command], command
    assert sum(len(options) for options in COMMAND_OPTIONS.values()) == 26


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_options_a_command_does_not_read_are_refused(capsys, command):
    assert cli.main([command, *BASE_ARGV[command]]) == 0
    capsys.readouterr()
    for option, value in SHARED_OPTIONS.items():
        if option in COMMAND_OPTIONS[command]:
            continue
        assert cli.main([command, *BASE_ARGV[command], option, value]) == 2, option
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {option} {value}" in captured.err


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_targets_and_module_exports_resolve():
    tracing = _load_tracing()
    for _label, module_name, attr in tracing.TARGETS:
        module = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
        assert callable(getattr(module, attr, None)), (module_name, attr)
    package = importlib.import_module(tracing.PACKAGE)
    modules = [package] + [importlib.import_module(f"{package.__name__}.{info.name}")
                           for info in pkgutil.iter_modules(package.__path__)]
    assert len(modules) == 8
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def test_tracer_times_the_walk_scan(capsys):
    # the benchmark's per-layer walk.scan metric reads these spans
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["figure1", "--n-min", "2", "--n-max", "6", "--t-max", "20"]) == 0
    finally:
        tracer.uninstall()
    assert "walk.scan" in [span[0] for span in tracer.spans]
    assert not hasattr(cli.main, "__wrapped__")  # uninstalled


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_is_refused_with_exit_2(tmp_path, capsys, command, target):
    out = tmp_path / "missing" / "x.csv" if target == "missing-directory" else tmp_path
    assert cli.main([command, *BASE_ARGV[command], "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(out) in captured.err


@pytest.mark.parametrize("target", ["missing-directory", "directory", "file-as-parent"])
def test_unwritable_out_is_refused_before_the_command_runs(tmp_path, capsys, monkeypatch,
                                                           target):
    def never(args):
        raise AssertionError("the command ran before its --out path was checked")

    monkeypatch.setattr(cli, "_cmd_verify", never)
    (tmp_path / "plain").write_text("")
    out = {"missing-directory": tmp_path / "missing" / "x.csv",
           "directory": tmp_path,
           "file-as-parent": tmp_path / "plain" / "x.csv"}[target]
    before = sorted(tmp_path.rglob("*"))
    argv = ["verify", "--suite", "theorem2", "--n-min", "20", "--n-max", "120"]
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(out) in captured.err
    assert sorted(tmp_path.rglob("*")) == before  # nothing created


def test_main_builds_one_parser_and_looks_up_the_handler_per_call(monkeypatch, capsys):
    cli._build_parser.cache_clear()
    assert cli.main(["equilibrium"]) == 0
    ran = []
    monkeypatch.setattr(cli, "_cmd_equilibrium", lambda args: ran.append(args.command) or 0)
    assert cli.main(["equilibrium"]) == 0
    assert ran == ["equilibrium"]  # the handler patched after the first call
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_refused_command_leaves_an_existing_out_file_alone(tmp_path, capsys):
    out = tmp_path / "kept.csv"
    out.write_text("earlier,run\n")
    assert cli.main(["cross-validate", "--n", "13", "--out", str(out)]) == 2
    assert out.read_text() == "earlier,run\n"
