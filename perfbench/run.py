"""cbirkit benchmark: seeded batch workloads driven through `run_pipeline`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the library is imported from
`src/`.  One client, closed loop: runs execute one at a time, each in a
fresh child process (perfbench/child.py) so that its peak RSS, read
through wait4, and its CPU time belong to that run alone.

A single workload first generates its inputs from the seed three to nine
times, until three seconds have gone by, and reports the median as
setup_s.  With --trace 0 it then runs the pipeline untraced for --seconds
and prints the end-to-end metrics.  Every timing metric is in reference
seconds: each set-up and each run is bracketed by a fixed calibration
kernel, and its time is scaled by how much slower or faster than on the
reference machine the kernel ran around it (calibrate.py).  The
wall-clock medians are printed beside them.  With --trace 1 it alternates
untraced and traced runs for --seconds and prints the per-layer metrics
from the traced runs; the difference of the two median run times is the
tracing overhead.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

`--workload all` runs every workload untraced and traced, prints every
end-to-end metric with its unit and sample count, writes the traces, and
exits non-zero if any check failed.

A run fails if it raises, if a quality number differs from the value
pinned for its seed in perfbench/pins.json (or, for a seed without pins,
falls outside the workload's accepted range), if its rankings.tsv digest
differs from the other runs of the invocation, or if the traced top-K spot
check finds a mismatch.  Outputs go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from calibrate import REFERENCE_S, speed_factor, time_kernel, warm_up

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
# every invocation must end well inside three minutes
DEADLINE = time.monotonic() + 165.0
SETUP_REPEATS = 3
# a cheap set-up is repeated for this long, or this many times
SETUP_SECONDS = 3.0
SETUP_MAX_REPEATS = 9
QUALITY = ("acc_at_1", "acc_at_10", "ap50", "ap")
# set-up is one interpreter thread writing files
SETUP_KERNEL = "interpreter"


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import cbirkit
    except ImportError as e:
        sys.exit(f"perfbench: cannot import cbirkit from {ROOT / 'src'}: {e}")
    if Path(cbirkit.__file__).resolve().parent != ROOT / "src" / "cbirkit":
        sys.exit(f"perfbench: cbirkit resolved to {cbirkit.__file__}, not this checkout")


def _read_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def provenance(threads: int) -> dict:
    """What a number depends on, so that two machines are never compared blind."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        # unset means the BLAS library default, one thread per core
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup(workload, seed: int, work: Path) -> tuple[Path, dict, list[float], list[float]]:
    """Generate the inputs at least SETUP_REPEATS times, and up to
    SETUP_MAX_REPEATS times until SETUP_SECONDS have gone by, with a
    calibration kernel before the first and after each; keep the last
    copy.  Returns the wall times and the times in reference seconds, each
    scaled by the kernels on either side of it."""
    times, scaled = [], []
    warm_up(SETUP_KERNEL)
    kernel_s = [time_kernel(SETUP_KERNEL)]
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_SECONDS
                                         and len(times) < SETUP_MAX_REPEATS):
        i = len(times)
        target = work / f"inputs{i}"
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        start = time.perf_counter()
        config, sizes = workload.setup(seed, target)
        times.append(time.perf_counter() - start)
        kernel_s.append(time_kernel(SETUP_KERNEL))
        scaled.append(times[-1] * speed_factor(SETUP_KERNEL, kernel_s[-2:]))
        if i:
            shutil.rmtree(work / f"inputs{i - 1}")
    return config, sizes, times, scaled


def run_child(config: Path, run_id: str, traced: bool, threads: int, kernel: str,
              work: Path, deadline: float) -> dict:
    """One run in a fresh process, killed at the monotonic `deadline`; peak
    RSS comes from wait4, the run's CPU time from the child itself, so that
    neither start-up nor the calibration kernels count."""
    result_path = work / f"{run_id}.json"
    log_path = work / f"{run_id}.log"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(config), str(result_path),
            str(threads), "1" if traced else "0", run_id, kernel]
    start = time.monotonic()
    # a fixed hash seed removes per-process dict and set layout noise
    env = dict(os.environ, PYTHONHASHSEED="0")
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, str(log_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ])
    timed_out = False
    done = 0
    try:
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                timed_out = True
            time.sleep(0.05)
    finally:
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
    record = {"run_id": run_id, "traced": traced, "wall_s": time.monotonic() - start,
              "peak_rss_mb": usage.ru_maxrss / 1024.0, "errors": []}
    if timed_out:
        record["errors"].append("killed at the invocation time limit")
    elif os.waitstatus_to_exitcode(status) != 0 or not result_path.exists():
        tail = log_path.read_text(errors="replace").strip().splitlines()[-1:]
        record["errors"].append(f"run raised: {' '.join(tail)}")
    else:
        record.update(_read_json(result_path))
        record["speed_factor"] = speed_factor(kernel, record["calibration_s"])
        with open(record["rankings_path"], "rb") as fh:
            record["digest"] = hashlib.sha256(fh.read()).hexdigest()
    return record


def run_phases(config: Path, modes: tuple[bool, ...], seconds: float, threads: int,
               kernel: str, work: Path) -> list[dict]:
    """Closed loop: start the next run only after the previous one ended,
    while the typical run still fits in the budget.  Runs alternate between
    `modes` (traced or not), so that drift hits both alike; at least one
    run of each."""
    runs: list[dict] = []
    start = time.monotonic()
    while True:
        if len(runs) >= len(modes):
            typical = statistics.median(r["wall_s"] for r in runs)
            if (time.monotonic() - start + typical > seconds
                    or time.monotonic() + typical > DEADLINE):
                break
        traced = modes[len(runs) % len(modes)]
        run_id = f"{'traced' if traced else 'plain'}{len(runs)}"
        runs.append(run_child(config, run_id, traced, threads, kernel, work, DEADLINE))
        if runs[-1]["errors"] and "killed" in runs[-1]["errors"][0]:
            break
    return runs


def check_runs(runs: list[dict], workload, seed: int, pins: dict) -> dict:
    """Mark failed runs and summarise the output checks."""
    tolerance = pins.get("tolerance", 0.0)
    pinned = pins.get("workloads", {}).get(workload.name, {}).get(str(seed))
    for r in runs:
        if r["errors"]:
            continue
        for name in QUALITY:
            value = r["quality"][name]
            if value is None or not math.isfinite(value):
                r["errors"].append(f"{name} missing")
            elif pinned is not None and abs(value - pinned[name]) > tolerance:
                r["errors"].append(f"{name}={value!r} but pinned {pinned[name]!r}")
            elif pinned is None and name in workload.quality_range:
                low, high = workload.quality_range[name]
                if not low <= value <= high:
                    r["errors"].append(f"{name}={value!r} outside [{low}, {high}]")
        spot = r.get("spot_check")
        if spot is not None and (spot["mismatched"] or not spot["queries_checked"]):
            r["errors"].append(f"top-K spot check: {spot}")
    digests = Counter(r["digest"] for r in runs if "digest" in r)
    reference = digests.most_common(1)[0][0] if digests else None
    for r in runs:
        if "digest" in r and r["digest"] != reference:
            r["errors"].append(f"rankings.tsv digest {r['digest']} != {reference}")
    pinned_digest = pinned.get("rankings_sha256") if pinned else None
    return {
        "rankings_sha256": reference,
        "pinned_sha256": pinned_digest,
        "digest_matches_pin": None if pinned_digest is None else reference == pinned_digest,
        "pinned_quality": pinned is not None,
        "errors": {r["run_id"]: r["errors"] for r in runs if r["errors"]},
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def end_to_end(runs: list[dict], setup_s: list[float], units: int) -> dict:
    """Median of each metric over the passing runs; timings in reference
    seconds, each run scaled by its own speed factor."""
    ok = [r for r in runs if not r["errors"]]
    values = {
        "run_s": _median(r["run_s"] * r["speed_factor"] for r in ok),
        "throughput_per_s": _median(units / (r["run_s"] * r["speed_factor"]) for r in ok),
        "cpu_s": _median(r["cpu_s"] * r["speed_factor"] for r in ok),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in ok),
        "setup_s": statistics.median(setup_s),
    }
    for name in QUALITY:
        values[name] = _median(r["quality"][name] for r in ok)
    return values


def per_layer(traced: list[dict]) -> dict:
    ok = [r for r in traced if not r["errors"]]
    names = ok[0]["layers"] if ok else {}
    return {name: _median(r["layers"][name] for r in ok) for name in names}


def layer_shares(layers: dict) -> dict:
    """Shares of the traced run taken by the three hot paths: exact top-K
    (search, QE, DBA), k-reciprocal re-ranking, and the detection half."""
    total = layers.get("pipeline.run_s") or float("nan")
    return {
        "topk_search_qe_dba": (layers["search.knn_s"] + layers["rerank.qe_s"]
                               + layers["rerank.dba_s"]) / total,
        "k_reciprocal": layers["rerank.k_reciprocal_s"] / total,
        "load_fuse_detection_ap": (layers["io.load_detections_s"] + layers["boxes.fuse_s"]
                                   + layers["evaluation.detection_ap_s"]) / total,
    }


def _metric_block(declared: list[dict], values: dict) -> dict:
    """Declared metrics with their values; a value no run produced is null."""
    block = {}
    for m in declared:
        value = values.get(m["name"])
        finite = value is not None and math.isfinite(value)
        block[m["name"]] = {"value": value if finite else None, "unit": m["unit"]}
    return block


def bench_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up once, then run untraced, or alternately untraced and traced."""
    from workloads import THREADS, WORKLOADS

    workload = WORKLOADS[name]
    pins_path = HERE / "pins.json"
    pins = _read_json(pins_path) if pins_path.exists() else {}
    work = WORK / "work" / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        config, sizes, setup_times, setup_scaled = setup(workload, seed, work)
        units = sizes[workload.throughput_unit]
        runs = run_phases(config, (False, True) if trace else (False,), seconds, THREADS,
                          workload.calibration, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    checks = check_runs(plain + traced, workload, seed, pins)
    result = {
        "workload": name, "seed": seed, "why": workload.why, "spec": workload.spec,
        "sizes": sizes, "throughput_unit": f"{workload.throughput_unit}/s",
        "provenance": provenance(THREADS), "checks": checks,
        "attempted": len(plain) + len(traced),
        "failed": sum(1 for r in plain + traced if r["errors"]),
        "samples": {"setup": len(setup_times),
                    "plain": sum(1 for r in plain if not r["errors"]),
                    "traced": sum(1 for r in traced if not r["errors"])},
        "calibration": {"run_kernel": workload.calibration, "setup_kernel": SETUP_KERNEL,
                        "reference_s": REFERENCE_S},
        "setup_wall_s": setup_times,
        "setup_s_samples": setup_scaled,
        "plain_runs": [{k: r.get(k) for k in ("run_id", "run_s", "cpu_s", "calibration_s",
                                               "speed_factor", "peak_rss_mb", "quality",
                                               "digest")} for r in plain],
        "end_to_end": end_to_end(plain, setup_scaled, units) if plain else None,
        "wall": {"run_s": _median(r["run_s"] for r in plain if not r["errors"]),
                 "cpu_s": _median(r["cpu_s"] for r in plain if not r["errors"]),
                 "setup_s": statistics.median(setup_times)},
    }
    if traced:
        layers = per_layer(traced)
        result["per_layer"] = layers
        result["shares"] = layer_shares(layers) if layers else None
        result["spot_check"] = [r.get("spot_check") for r in traced]
        result["tracing_overhead_s"] = (
            _median(r["run_s"] for r in traced if not r["errors"])
            - _median(r["run_s"] for r in plain if not r["errors"]))
        trace_path = WORK / "out" / f"trace-{name}-s{seed}.json"
        result["trace_path"] = str(trace_path.relative_to(ROOT))
        _write_json(trace_path, {
            "workload": name, "seed": seed, "provenance": result["provenance"],
            "tracing_overhead_s": result["tracing_overhead_s"],
            "per_layer": layers, "shares": result["shares"],
            "spot_check": result["spot_check"],
            "spans": [s for r in traced for s in r.get("spans", [])],
        })
    return result


def _print_summary(result: dict, declared: dict) -> None:
    n = result["samples"]
    print(f"== {result['workload']} seed={result['seed']} sizes={json.dumps(result['sizes'])}")
    if result["end_to_end"]:
        for m in declared["end_to_end"]:
            count = n["setup"] if m["name"] == "setup_s" else n["plain"]
            unit = result["throughput_unit"] if m["name"] == "throughput_per_s" else m["unit"]
            print(f"  {m['name']:<18} {result['end_to_end'][m['name']]:.6g} {unit}"
                  f"  (median of {count})")
        wall = result["wall"]
        print(f"  wall clock, unscaled: run_s {wall['run_s']:.6g}  cpu_s {wall['cpu_s']:.6g}"
              f"  setup_s {wall['setup_s']:.6g}")
    if "per_layer" in result:
        for name, value in result["per_layer"].items():
            print(f"  {name:<30} {value:.6g}  (median of {n['traced']} traced)")
        print(f"  tracing overhead  {result['tracing_overhead_s']:+.4f} s")
        print(f"  shares of the traced run  {json.dumps(result['shares'])}")
        print(f"  trace written to {result['trace_path']}")
    checks = result["checks"]
    print(f"  rankings.tsv sha256 {checks['rankings_sha256']}"
          f"  pinned: {checks['digest_matches_pin']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    for run_id, errors in checks["errors"].items():
        print(f"  FAILED {run_id}: {'; '.join(errors)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    declared = _read_json(ROOT / "BENCHMARK.json")
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _import_library()
    from workloads import WORKLOADS

    if args.workload == "all":
        results = [bench_workload(name, args.seed, seconds, True) for name in WORKLOADS]
        for result in results:
            _print_summary(result, declared)
        out = WORK / "out" / f"all-s{args.seed}.json"
        _write_json(out, results)
        failed = sum(r["failed"] for r in results)
        print(f"summary written to {out.relative_to(ROOT)}; {failed} failed runs")
        return 1 if failed else 0

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    result = bench_workload(args.workload, args.seed, seconds, bool(args.trace))
    _write_json(WORK / "out" / f"{args.workload}-s{args.seed}-trace{args.trace}.json", result)
    _print_summary(result, declared)
    if args.trace:
        metrics = _metric_block(declared["per_layer"], result.get("per_layer", {}))
    else:
        metrics = _metric_block(declared["end_to_end"], result["end_to_end"] or {})
    correct = result["failed"] == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
