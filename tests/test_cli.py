"""CSV command-line interface: schemas, values, exit codes, determinism."""

import csv

import pytest

from hypercube_walk import cli, spectral, walk


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
        profile = walk.scan(walk.WalkParams(n, max(100, 2 * n)))
        assert (int(row[1]), float(row[2])) == walk.t_min(profile, parity=parity)


def test_figure1_rejects_bad_range(tmp_path):
    assert run(tmp_path, "figure1", "--n-min", "12", "--n-max", "10")[0] == 2
    assert run(tmp_path, "figure1", "--n-min", "2", "--n-max", "70")[0] == 2


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
    # without the Chebyshev column the budget check compares against a numpy
    # square root, so the agree flag is a numpy bool
    code, text = run(tmp_path, "p0", "--n", "10", "--t-max", "8", "--method", "bessel")
    assert code == 0
    rows = rows_of(text)
    assert len(rows) == 10
    assert all(r[6] in ("true", "false") for r in rows[1:])


def test_p0_bessel_method_with_odd_parity_refused(tmp_path):
    code, _ = run(tmp_path, "p0", "--n", "10", "--t-max", "9",
                  "--method", "bessel", "--parity", "odd")
    assert code == 2


def test_p0_bad_k_max(tmp_path):
    code, _ = run(tmp_path, "p0", "--n", "10", "--t-max", "4", "--k-max", "3")
    assert code == 2


def test_verify_theorem2(tmp_path):
    code, text = run(tmp_path, "verify", "--suite", "theorem2", "--n", "20")
    assert code == 0
    rows = rows_of(text)
    assert rows[0] == ["name", "n", "nu", "computed", "bound", "margin", "pass"]
    assert len(rows) == 4
    assert {r[0] for r in rows[1:]} == {"theorem2_tail", "theorem2_middle", "theorem2_bulk"}
    assert all(r[6] == "true" for r in rows[1:])


def test_verify_theorem2_skips_inadmissible(tmp_path):
    code, text = run(tmp_path, "verify", "--suite", "theorem2",
                     "--n-min", "2", "--n-max", "4")
    rows = rows_of(text)
    assert any(r[6].startswith("skip:") for r in rows[1:])
    assert code == 0  # skips are not failures


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


def test_verify_lemma1(tmp_path):
    code, text = run(tmp_path, "verify", "--suite", "lemma1", "--n", "12")
    assert code == 0
    rows = rows_of(text)
    assert all(r[6] == "true" for r in rows[1:])
    assert len(rows) == 1 + 21 * 6 + 2


def test_verify_theorem1_small_range(tmp_path):
    code, text = run(tmp_path, "verify", "--suite", "theorem1",
                     "--n-min", "10", "--n-max", "14")
    assert code == 0
    rows = rows_of(text)
    assert all(r[6] == "true" for r in rows[1:])


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
