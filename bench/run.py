"""Benchmark of the hypercube-walk package: times, memory and checked outputs.

Run from the root of a source checkout:

    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--workload`` is one of bessel-p0, walk-scan, bound-sweep, or ``all`` to run
each in a fresh process.  One run imports the package from ``src/``, builds
the exact references, then repeats passes over the workload's calls for
``--seconds`` seconds and checks every number each pass emits.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  Lines before it start with ``#`` and give each
metric with its unit and sample count, the failures by check class and the
environment.  A copy of everything, spans included, goes to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import os

# One thread everywhere, fixed before numpy loads, so runs are comparable.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 7
# The machine's speed drifts by up to 1.8x within seconds (the calibration
# work below took 0.07 to 0.13 s within one minute on the 2-core Xeon VM this
# benchmark was written on).  So a calibration run follows every timed call,
# and every time is reported at the speed where the calibration work takes
# this long: times as measured, times this over the run's mean calibration.
CALIBRATION_NOMINAL_S = 0.075
CHILD_TIMEOUT_S = 120
IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import hypercube_walk.cli\n"
    "print(time.perf_counter() - start)\n"
    "print(hypercube_walk.cli.__file__)\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return _run_all(args)
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    _pin_to_one_cpu()
    env_start = _environment()
    _require_source()
    declared = _declared_metrics("per_layer" if trace else "end_to_end")
    setup, setup_calibration = _setup_times()
    sys.path.insert(0, str(SRC))
    import hypercube_walk

    if not Path(hypercube_walk.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"hypercube_walk imported from {hypercube_walk.__file__}, not {SRC}")
    import checks
    import reference
    import tracing
    import workloads

    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; "
                         f"choose from all, {', '.join(workloads.WORKLOADS)}")
    try:
        calls = workloads.build(workload, seed)
    except reference.ReferenceMismatch as exc:
        raise BenchError(f"the exact reference is inconsistent: {exc}") from exc
    m = _measure(calls, seconds, tracing.Tracer() if trace else None, checks.Tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally = m.tally

    summary = {
        "wall_s": _timing(m.plain, m.calibration, "untraced passes"),
        "setup_s": _timing(setup, setup_calibration, "fresh imports of hypercube_walk.cli"),
        "peak_rss_mb": _summary([peak_rss_mb], "MB", "run process"),
        "pass_rate": {"value": 1.0 - tally.checks_failed / tally.checks, "unit": "ratio",
                      "samples": tally.checks,
                      "note": "checks made; the share that passed"},
        "wall_raw_s": _summary(m.plain, "s", "untraced passes as timed"),
        "setup_raw_s": _summary(setup, "s", "fresh imports as timed"),
        "calibration_s": _summary(m.calibration, "s", "calibration runs"),
    }
    if trace:
        metrics = _layer_metrics(m, declared)
        summary["specfun_quadrature_share"] = _summary(
            [p["specfun_quadrature_self_s"] / t for p, t in zip(m.layer_passes, m.traced)],
            "ratio", "traced passes: specfun + quadrature self time / pass time")
    else:
        metrics = {name: {"value": summary[name]["value"], "unit": unit}
                   for name, unit in declared.items()}
    new_failures = tally.new_failures()
    result = {"correct": not new_failures, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}

    env = {"start": env_start, "end": _environment()}
    _report(workload, seed, seconds, trace, calls, summary, tally, new_failures, env, metrics)
    _write_record(workload, seed, trace, {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "calls": [c.label for c in calls], "environment": env, "summary": summary,
        "pass_times_s": {"untraced": m.plain, "traced": m.traced},
        "calibration_s": m.calibration,
        "setup_times_s": setup, "setup_calibration_s": setup_calibration,
        "failures_by_class": dict(tally.by_class), "first_failure": tally.first_failure,
        "failed_rows": {cls: sorted(rows) for cls, rows in tally.failed_rows.items()},
        "new_failures": new_failures, "result": result,
        "spans": m.spans, "bindings": m.bindings,
    })
    return result


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

@dataclass
class Measurement:
    plain: list[float] = field(default_factory=list)  # untraced pass times
    traced: list[float] = field(default_factory=list)
    calibration: list[float] = field(default_factory=list)
    layer_passes: list[dict] = field(default_factory=list)
    spans: dict | None = None
    bindings: list[str] | None = None
    tally: object = None


def _measure(calls, seconds: float, tracer, new_tally) -> Measurement:
    """Repeat passes until ``seconds`` have elapsed; check every pass.

    Untraced, every pass is timed with tracing off.  Traced, passes alternate
    off and on (at least one of each) and the per-layer numbers come from the
    traced passes only.  A calibration run sits before the first call and
    after every call.
    """
    m = Measurement(tally=new_tally(), calibration=[_calibrate()])
    deadline = time.perf_counter() + seconds
    while True:
        tracing_on = tracer is not None and len(m.traced) < len(m.plain)
        if tracing_on:
            tracer.reset()
            m.bindings = tracer.install()
        try:
            elapsed, results = _one_pass(calls, m.calibration)
        finally:
            if tracing_on:
                tracer.uninstall()
        pass_tally = new_tally()
        for call, result in zip(calls, results):
            call.check(result, pass_tally)
        m.tally.merge(pass_tally)
        if tracing_on:
            m.traced.append(elapsed)
            m.layer_passes.append(_pass_layers(tracer, results, pass_tally))
            m.spans = tracer.aggregate()
        else:
            m.plain.append(elapsed)
        if time.perf_counter() >= deadline and (tracer is None or m.traced):
            return m


def _pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU.

    The two CPUs of a shared machine run at different speeds from moment to
    moment; the calibration only describes the CPU it ran on.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def _speed(calibration: list[float]) -> float:
    """Factor from this run's times to nominal speed."""
    return CALIBRATION_NOMINAL_S / statistics.fmean(calibration)


def _calibrate() -> float:
    """Seconds for a fixed piece of work shaped like the workloads.

    Interpreter loops, numpy on 61-element arrays (the walk's size) and on
    1500-element arrays (a quadrature call's size).
    """
    import numpy as np

    start = time.perf_counter()
    items = list(range(1000))
    total = 0
    for _ in range(500):
        total += sum(i * i % 7 for i in items)
    small = np.linspace(0.0, 1.0, 61)
    for _ in range(8000):
        small = np.sqrt(small * small + 0.5) - 0.5 * small
    x = np.linspace(0.0, 50.0, 1500)
    for _ in range(1000):
        total += float(np.sum(np.cos(x) * x / (x + 1.0)))
    return time.perf_counter() - start


def _one_pass(calls, calibration: list[float]) -> tuple[float, list]:
    """Each call once, a calibration run after each: seconds timed, results."""
    results = []
    elapsed = 0.0
    for call in calls:
        start = time.perf_counter()
        results.append(call.invoke())
        elapsed += time.perf_counter() - start
        calibration.append(_calibrate())
    return elapsed, results


def _pass_layers(tracer, results, tally) -> dict[str, float]:
    """Per-layer numbers of one traced pass, times as measured."""
    spans = tracer.aggregate()
    counts = tracer.counts

    def span(label: str, field: str) -> float:
        return spans.get(label, {}).get(field, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    rows_out = bytes_out = 0
    for result in results:
        if isinstance(result, tuple) and isinstance(result[1], str):
            text = result[1]
            rows_out += max(0, text.count("\n") - 1)
            bytes_out += len(text.encode("utf-8"))
    points = counts["specfun.bessel_J.points"]
    level_updates = counts["walk.level_updates"]
    return {
        "walk.step.calls": span("walk.step", "calls"),
        "walk.step.self_s": span("walk.step", "self_s"),
        "walk.scan.self_s": span("walk.scan", "self_s"),
        "walk.level_updates": level_updates,
        "walk.ns_per_level_update": ratio(1e9 * span("walk.step", "self_s"), level_updates),
        "walk.rows_failed": tally.rows_failed_by_layer["walk"],
        "full.full_step.calls": span("full.full_step", "calls"),
        "full.full_step.self_s": span("full.full_step", "self_s"),
        "full.project_symmetric.self_s": span("full.project_symmetric", "self_s"),
        "full.bytes_computed": counts["full.bytes_computed"],
        "specfun.bessel_J.calls": span("specfun.bessel_J", "calls"),
        "specfun.bessel_J.points": points,
        "specfun.bessel_J.upward_points": counts["specfun.bessel_J.upward_points"],
        "specfun.bessel_J.miller_points": counts["specfun.bessel_J.miller_points"],
        "specfun.bessel_J.self_s": span("specfun.bessel_J", "self_s"),
        "specfun.bessel_J.ns_per_point": ratio(1e9 * span("specfun.bessel_J", "self_s"), points),
        "specfun.bessel_J.cross_order_share":
            ratio(counts["specfun.bessel_J.cross_order_points"], points),
        "specfun.bessel_J.repeat_share": ratio(counts["specfun.bessel_J.repeat_points"], points),
        "specfun.identity.calls": span("specfun.identity", "calls"),
        "specfun.identity.self_s": span("specfun.identity", "self_s"),
        "specfun.identity.rows_failed": tally.rows_failed_by_layer["specfun.identity"],
        "quadrature.panel_quad.calls": span("quadrature.panel_quad", "calls"),
        "quadrature.panel_quad.panels": counts["quadrature.panel_quad.panels"],
        "quadrature.panel_quad.evals": counts["quadrature.panel_quad.evals"],
        "quadrature.panel_quad.self_s": span("quadrature.panel_quad", "self_s"),
        "quadrature.useful_eval_ratio":
            ratio(counts["quadrature.useful_evals"], counts["quadrature.panel_quad.evals"]),
        "spectral.segment_integral.calls": span("spectral.segment_integral", "calls"),
        "spectral.segment_integral.self_s": span("spectral.segment_integral", "self_s"),
        "spectral.bulk_integral.self_s": span("spectral.bulk_integral", "self_s"),
        "spectral.p0_amplitude_bessel.calls": span("spectral.p0_amplitude_bessel", "calls"),
        "spectral.p0_amplitude_bessel.s": span("spectral.p0_amplitude_bessel", "total_s"),
        "spectral.p0_amplitude_chebyshev.self_s":
            span("spectral.p0_amplitude_chebyshev", "self_s"),
        "spectral.bessel_rows_failed": tally.rows_failed_by_layer["spectral.bessel"],
        "spectral.chebyshev_rows_failed": tally.rows_failed_by_layer["spectral.chebyshev"],
        "bounds.theorem2_bounds.s": span("bounds.theorem2_bounds", "total_s"),
        "bounds.theorem1_check.s": span("bounds.theorem1_check", "total_s"),
        "bounds.lemma1_empirical_reports.s": span("bounds.lemma1_empirical_reports", "total_s"),
        "cli.self_s": span("cli.main", "self_s"),
        "cli.rows_out": rows_out,
        "cli.bytes_out": bytes_out,
        # share of the traced pass spent in specfun and quadrature code itself
        "specfun_quadrature_self_s": (span("specfun.bessel_J", "self_s")
                                      + span("specfun.identity", "self_s")
                                      + span("quadrature.panel_quad", "self_s")
                                      + span("quadrature.panel_quad_with_error", "self_s")),
    }


def _layer_metrics(m: Measurement, declared: dict[str, str]) -> dict:
    """Times: means over the traced passes at nominal speed.  Counts and
    ratios repeat exactly from pass to pass; the lower median is that value.
    """
    speed = _speed(m.calibration)
    metrics = {}
    for name, unit in declared.items():
        if name == "trace.overhead_s":
            value = (statistics.fmean(m.traced) - statistics.fmean(m.plain)) * speed
        elif unit in ("s", "ns"):
            value = statistics.fmean(p[name] for p in m.layer_passes) * speed
        else:
            value = statistics.median_low(p[name] for p in m.layer_passes)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _timing(values: list[float], calibration: list[float], what: str) -> dict:
    """Mean of ``values`` at nominal speed, with quartiles at the same speed."""
    speed = _speed(calibration)
    summary = _summary([v * speed for v in values], "s", f"{what} at nominal speed")
    summary.update(value=statistics.fmean(values) * speed, note=f"mean of {what} at nominal speed")
    return summary


def _summary(values: list[float], unit: str, what: str) -> dict:
    ordered = sorted(values)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else ordered * 3
    return {"value": statistics.median(ordered), "unit": unit, "samples": len(ordered),
            "q1": q1, "q3": q3, "min": ordered[0], "max": ordered[-1], "note": f"median of {what}"}


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def _declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for ``kind``."""
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read the {kind} metrics from BENCHMARK.json: {exc}") from exc
    return {metric["name"]: metric["unit"] for metric in declared}


def _require_source() -> None:
    if not (SRC / "hypercube_walk" / "cli.py").is_file():
        raise BenchError(f"no package source under {SRC}; run from a source checkout")


def _setup_times() -> tuple[list[float], list[float]]:
    """Import times of hypercube_walk.cli in fresh interpreters, and the
    calibration runs around them.

    One unmeasured import first compiles the bytecode cache, which a user
    pays once, not per call.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times: list[float] = []
    calibration = [_calibrate()]
    for attempt in range(SETUP_SAMPLES + 1):
        try:
            child = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                                   capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"importing hypercube_walk.cli took over {exc.timeout} s") from exc
        if child.returncode != 0:
            raise BenchError(f"importing hypercube_walk.cli failed:\n{child.stderr}")
        seconds, path = child.stdout.split("\n")[:2]
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"fresh interpreter imported {path}, not the checkout's source")
        if attempt:
            times.append(float(seconds))
            calibration.append(_calibrate())
    return times, calibration


# ---------------------------------------------------------------------------
# environment stamp and reporting
# ---------------------------------------------------------------------------

def _environment() -> dict:
    import numpy
    import scipy

    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "git": _git_state(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "loadavg": loadavg,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None, "note": "not a git checkout"}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired) as exc:
        return {"sha": None, "dirty": None, "note": f"git unavailable: {exc}"}
    return {"sha": sha or None, "dirty": bool(status.strip())}


def _report(workload, seed, seconds, trace, calls, summary, tally, new_failures, env,
            metrics) -> None:
    print(f"# hypercube-walk benchmark: workload={workload} seed={seed} "
          f"seconds={seconds:g} trace={int(trace)}")
    print(f"# env start {json.dumps(env['start'], sort_keys=True)}")
    print(f"# env end loadavg={env['end']['loadavg']}")
    for call in calls:
        print(f"# call {call.label}")
    for name, s in summary.items():
        spread = f", q1 {s['q1']:.6g}, q3 {s['q3']:.6g}" if "q1" in s else ""
        print(f"# {name} = {s['value']:.6g} {s['unit']} "
              f"({s['samples']} samples: {s['note']}{spread})")
    print(f"# error_rate = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} failed of {tally.attempted} operations; "
          f"{tally.checks_failed} failed of {tally.checks} checks)")
    for cls, count in sorted(tally.by_class.items()):
        rows = len(tally.failed_rows[cls])
        new = new_failures.get(cls, [])
        status = (f"NEW FAILURE on {len(new)} rows: {', '.join(new[:5])}" if new
                  else "known defect")
        print(f"# failed {cls}: {count} checks on {rows} rows "
              f"({status}; first: {tally.first_failure[cls]})")
    if trace:
        for name, m in metrics.items():
            value = m["value"]
            shown = str(value) if isinstance(value, int) else f"{value:.6g}"
            print(f"# {name} = {shown} {m['unit']}")


def _write_record(workload: str, seed: int, trace: bool, record: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")


def _run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    import workloads

    status = 0
    combined = {}
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            status = child.returncode
            continue
        combined[name] = json.loads(child.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": combined}))
    return status


if __name__ == "__main__":
    sys.exit(main())
