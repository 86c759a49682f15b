"""One pipeline run in a process of its own.

    python3 perfbench/child.py CONFIG RESULT_JSON THREADS TRACE RUN_ID KERNEL

Times `PipelineConfig.from_file` plus `run_pipeline`, from reading the
config to report.json written, and writes the timing and the quality
numbers to RESULT_JSON, with the CPU time of every thread over that
interval and the times of the calibration KERNEL run just before and just
after it (see calibrate.py).  With TRACE=1 it also records spans around
the library calls and, after the timed run, checks a fixed sample of the
`knn_search` results against an independent numpy top-K.  The parent
reads this process's peak RSS from wait4.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from calibrate import time_kernel, warm_up  # noqa: E402
from cbirkit import PipelineConfig, run_pipeline  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402

SPOT_CHECK_QUERIES = 32


def spot_check(knn_calls) -> dict:
    """Recompute the exact top-K of a fixed query sample per search call:
    one GEMM, clip to [-1, 1], then order by (-score, item_id)."""
    checked = mismatched = 0
    for call, rankings in knn_calls:
        gallery = call.arguments["index"].gallery
        queries = call.arguments["queries"]
        k = call.arguments["k"]
        sample = np.unique(np.linspace(0, queries.n_rows - 1, SPOT_CHECK_QUERIES).astype(int))
        scores = np.clip(queries.data[sample] @ gallery.data.T, -1.0, 1.0)
        categories = np.array([r.category_id for r in gallery.ids])
        for qi, row in zip(sample.tolist(), scores):
            candidates = np.arange(gallery.n_rows)
            if call.arguments["restrict_to_query_category"]:
                candidates = np.nonzero(categories == queries.ids[qi].category_id)[0]
            top = candidates[np.lexsort((gallery.item_ids[candidates], -row[candidates]))][:k]
            got = rankings[qi]
            checked += 1
            if (got.query_id != queries.ids[qi].item_id
                    or list(got.item_ids) != gallery.item_ids[top].tolist()):
                mismatched += 1
    return {"search_calls": len(knn_calls), "queries_checked": checked,
            "mismatched": mismatched}


def _cpu_s() -> float:
    """User plus system CPU seconds of every thread of this process."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    config_path, result_path, threads, trace, run_id, kernel = argv
    warm_up(kernel)
    calibration = [time_kernel(kernel)]
    tracer = Tracer(run_id) if trace == "1" else None
    if tracer is not None:
        tracer.install()
    with tracer.span("pipeline.run") if tracer is not None else nullcontext():
        cpu_start = _cpu_s()
        start = time.perf_counter()
        result = run_pipeline(PipelineConfig.from_file(config_path), threads=int(threads))
        run_s = time.perf_counter() - start
        cpu_s = _cpu_s() - cpu_start
    if tracer is not None:
        tracer.uninstall()
    calibration.append(time_kernel(kernel))

    detection = result.report["detection"] or {}
    acc = result.report["retrieval"]["acc"]
    out = {
        "run_id": run_id,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "calibration_s": calibration,
        "quality": {"acc_at_1": acc.get("1"), "acc_at_10": acc.get("10"),
                    "ap50": detection.get("ap50"), "ap": detection.get("ap")},
        "rankings_path": result.rankings_path,
    }
    if tracer is not None:
        origin = tracer.spans[0]["start"]
        selfs = self_times(tracer.spans)
        out["layers"] = layer_metrics(tracer.spans)
        out["spans"] = [dict(s, start=s["start"] - origin, end=s["end"] - origin,
                             self_s=selfs[s["id"]]) for s in tracer.spans]
        out["spot_check"] = spot_check(tracer.knn_calls)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
