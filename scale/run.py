"""Scale study: three benchmark workloads at several sizes.

    python3 scale/run.py --out BENCH.json [--scales 1,10] [--seed 1]
                         [--repeats 1] [--baseline CHECKOUT] [--work DIR]

Run from the root of a source checkout.  The inputs come from perfbench's
workload definitions (perfbench/workloads.py, read only), with the size
multiplied by each scale:

* retrieval_chain: `num_images` times the scale (1000 at 1x, so 3000
  queries against 3000 gallery rows), then concat, PCA, QE, DBA, search;
  the detection half is left out;
* rerank_multishot: `n_items` times the scale (80 at 1x), then whole-gallery
  k-reciprocal re-ranking to the top 10; the detection half is left out;
* detection_fusion: perfbench's own set-up with the detection half's
  `num_images` times the scale (2000 at 1x, about 66,000 boxes from five
  detectors), then the JSONL loaders, WBF and detection AP; the retrieval
  half stays at its 1x size.

The inputs are written under --work (default .scale/ in the checkout),
by a child process, and removed once their runs are done; the output
records the wall seconds each generation took (setup_s).  Each run is
`run_pipeline` in a fresh child process, traced with
perfbench's `spans.Tracer` and bracketed by the workload's calibration
kernel (perfbench/calibrate.py).  Per run the output records the wall and
CPU seconds of the pipeline, the CPU seconds of the processes it reaped
meanwhile (cpu_children_s: a helper that parses a share of the detection
files, which cpu_s, this process's own, leaves out), reference seconds
(wall seconds scaled by the calibration kernel), peak RSS from wait4 (the
larger of this process's and a helper's, not their sum), the run's own
peak (run_hwm_mb: VmHWM read as `run_pipeline` returns, before the second
calibration kernel, which wait4 also counts), Acc@1 and Acc@10, AP and AP50 where
there is a detection half, the sha256 of rankings.tsv and of
fused_boxes.jsonl (null without a detection half) and the traced layers.
At 1x the rankings digest is compared with perfbench/pins.json, whose
digests do not depend on the detection half.

With --baseline, the same inputs also run against the library of another
checkout (its src/ directory), alternating with this one run by run, so
that drift of a shared host hits both alike.  The inputs are generated
--repeats times per workload and scale by each library, alternating too;
the script fails unless every generation writes the same files, sha256
for sha256.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SCALE_OF = {"retrieval_chain": "num_images", "rerank_multishot": "n_items",
            "detection_fusion": "num_images"}


def _libraries(src: Path) -> None:
    """Import cbirkit from `src` and perfbench's modules by name."""
    sys.path[:0] = [str(src), str(PERFBENCH)]


def setup(name: str, scale: float, seed: int, out: Path) -> dict:
    """Write one workload's inputs at `scale` and its config; return the
    config path, the input sizes, the workload's calibration kernel and the
    wall seconds the writing took."""
    import workloads
    from cbirkit import io as formats
    from cbirkit.synthetic import SyntheticSpec, generate_synthetic

    start = time.perf_counter()
    out.mkdir(parents=True, exist_ok=True)
    if name == "retrieval_chain":
        spec = dict(workloads.RETRIEVAL_CHAIN_SPEC)
        spec["num_images"] = round(spec["num_images"] * scale)
        manifest = generate_synthetic(SyntheticSpec(seed=seed, **spec), out)
        config = json.loads(Path(manifest["config"]).read_text())
        config.update(detections=[], post=workloads.RETRIEVAL_CHAIN_POST)
        config["eval"]["detection_gt"] = None
        sizes = {"queries": manifest["num_items"], "gallery": manifest["num_items"]}
    elif name == "detection_fusion":
        spec = dict(workloads.FUSION_DETECTION_SPEC)
        spec["num_images"] = round(spec["num_images"] * scale)
        # the set-up reads its detection spec from the module when it runs;
        # this process runs the one set-up and exits
        workloads.FUSION_DETECTION_SPEC = spec
        path, sizes = workloads.WORKLOADS[name].setup(seed, out)
        config = json.loads(path.read_text())
    else:
        spec = dict(workloads.MULTISHOT)
        spec["n_items"] = round(spec["n_items"] * scale)
        matrix, gt = workloads.multishot_set(seed, **spec)
        formats.save_embeddings(matrix, out / "multishot.emb", out / "multishot.ids.jsonl")
        formats.save_retrieval_gt(gt, out / "retrieval_gt.jsonl")
        config = {"embeddings": [{"data": str(out / "multishot.emb"),
                                  "ids": str(out / "multishot.ids.jsonl")}],
                  "post": workloads.RERANK_POST,
                  "search": {"k": 10, "restrict_to_query_category": False},
                  "eval": {"retrieval_gt": str(out / "retrieval_gt.jsonl"), "ks": [1, 10]}}
        sizes = {"queries": len(gt), "gallery": matrix.n_rows - len(gt)}
    config["output_dir"] = str(out / "run")
    path = out / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return {"config": str(path), "sizes": {SCALE_OF[name]: spec[SCALE_OF[name]], **sizes},
            "kernel": workloads.WORKLOADS[name].calibration,
            "setup_s": time.perf_counter() - start}


def _sha256(path: str) -> str:
    """sha256 of a file, read in chunks."""
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def child(config: str, result: str, kernel: str) -> None:
    """One traced, calibrated pipeline run; writes its numbers to `result`."""
    import numpy as np
    from calibrate import speed_factor, time_kernel, warm_up
    from cbirkit import PipelineConfig, run_pipeline
    from spans import Tracer, layer_metrics, vm_hwm_mb

    def cpu_s(who: int) -> float:
        usage = resource.getrusage(who)
        return usage.ru_utime + usage.ru_stime

    warm_up(kernel)
    calibration = [time_kernel(kernel)]
    tracer = Tracer("scale")
    tracer.install()
    try:
        with tracer.span("pipeline.run"):
            cpu, children = cpu_s(resource.RUSAGE_SELF), cpu_s(resource.RUSAGE_CHILDREN)
            start = time.perf_counter()
            outcome = run_pipeline(PipelineConfig.from_file(config))
            wall = time.perf_counter() - start
            cpu = cpu_s(resource.RUSAGE_SELF) - cpu
            children = cpu_s(resource.RUSAGE_CHILDREN) - children
    finally:
        tracer.uninstall()
    # the run's own peak, before the calibration kernel can raise it
    run_hwm = vm_hwm_mb()
    calibration.append(time_kernel(kernel))
    acc = outcome.report["retrieval"]["acc"]
    detection = outcome.report["detection"] or {}
    Path(result).write_text(json.dumps({
        "wall_s": wall, "cpu_s": cpu, "cpu_children_s": children, "run_hwm_mb": run_hwm,
        "calibration_s": calibration,
        "ref_s": wall * speed_factor(kernel, calibration), "numpy": np.__version__,
        "acc_at_1": acc["1"], "acc_at_10": acc["10"],
        "ap": detection.get("ap"), "ap50": detection.get("ap50"),
        "rankings_sha256": _sha256(outcome.rankings_path),
        "fused_sha256": _sha256(outcome.fused_path) if outcome.fused_path else None,
        "layers": {k: v for k, v in layer_metrics(tracer.spans).items() if v},
    }))


def _spawn(argv: list[str], log: Path):
    """Run this script with `argv` in a fresh process, its output to `log`;
    returns the wait4 resource usage.  The parent stays small, so that the
    peak RSS a child inherits from it at exec stays below the child's own."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    pid = os.posix_spawn(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv],
                         env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2)])
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:]
        raise SystemExit(f"scale: {argv[0]} {argv[1]} failed: {' '.join(tail)}")
    return usage


def _run(src: Path, config: str, kernel: str, work: Path) -> dict:
    """`child` in a fresh process over the library in `src`; its peak RSS
    comes from wait4."""
    result = work / "result.json"
    result.unlink(missing_ok=True)
    usage = _spawn(["--child", str(src), config, str(result), kernel], work / "child.log")
    record = json.loads(result.read_text())
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return record


def _digests(root: Path) -> dict[str, str]:
    """sha256 of every file under `root`, by its path below it."""
    return {str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _summary(runs: list[dict]) -> dict:
    """Medians of the timings and memory; the digests and quality numbers,
    which must agree across the runs."""
    out = {key: statistics.median(r[key] for r in runs)
           for key in ("wall_s", "cpu_s", "cpu_children_s", "ref_s", "peak_rss_mb",
                       "run_hwm_mb")}
    for key in ("acc_at_1", "acc_at_10", "ap", "ap50", "rankings_sha256", "fused_sha256"):
        values = {r[key] for r in runs}
        out[key] = values.pop() if len(values) == 1 else sorted(values)
    return out


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        src, config, result, kernel = argv[1:]
        _libraries(Path(src))
        child(config, result, kernel)
        return 0
    if argv[:1] == ["--setup"]:
        src, name, scale, seed, out = argv[1:]
        _libraries(Path(src))
        print(json.dumps(setup(name, float(scale), int(seed), Path(out))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scales", default="1,10")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--baseline", type=Path, default=None)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--work", type=Path, default=ROOT / ".scale")
    args = parser.parse_args(argv)

    trees = {"checkout": ROOT / "src"}
    if args.baseline is not None:
        trees = {"baseline": args.baseline.resolve() / "src", **trees}
    pins = json.loads((PERFBENCH / "pins.json").read_text())["workloads"]
    results = []
    for name in SCALE_OF:
        for scale in map(float, args.scales.split(",")):
            work = args.work / f"{name}-x{scale:g}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            # alternate which tree goes first, so that neither always runs warm
            orders = [list(trees)[::1 if repeat % 2 == 0 else -1]
                      for repeat in range(args.repeats)]
            setup_s, first = {tree: [] for tree in trees}, None
            for tree in itertools.chain.from_iterable(orders):
                shutil.rmtree(work / "inputs", ignore_errors=True)
                _spawn(["--setup", str(trees[tree]), name, str(scale), str(args.seed),
                        str(work / "inputs")], work / "setup.log")
                inputs = json.loads((work / "setup.log").read_text().splitlines()[-1])
                setup_s[tree].append(inputs["setup_s"])
                digests = _digests(work / "inputs")
                first = first or (tree, digests)
                differ = sorted(f for f in digests.keys() | first[1].keys()
                                if digests.get(f) != first[1].get(f))
                if differ:
                    raise SystemExit(f"scale: {name} x{scale:g}: the inputs that {tree} "
                                     f"writes differ from {first[0]}'s: {', '.join(differ)}")
            runs = {tree: [] for tree in trees}
            for tree in itertools.chain.from_iterable(orders):
                runs[tree].append(_run(trees[tree], inputs["config"], inputs["kernel"], work))
                print(f"{name} x{scale:g} {tree}: {runs[tree][-1]['wall_s']:.3f} s",
                      file=sys.stderr)
            entry = {"workload": name, "scale": scale, "sizes": inputs["sizes"],
                     "summary": {tree: {**_summary(runs[tree]),
                                        "setup_s": statistics.median(setup_s[tree])}
                                 for tree in trees},
                     "setup_s": setup_s, "runs": runs}
            pin = pins[name].get(str(args.seed)) if scale == 1 else None
            if pin is not None:
                entry["pinned"] = {tree: s["rankings_sha256"] == pin["rankings_sha256"]
                                   for tree, s in entry["summary"].items()}
            results.append(entry)
            shutil.rmtree(work)
    args.out.write_text(json.dumps({
        "seed": args.seed, "repeats": args.repeats,
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()},
        "results": results}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
