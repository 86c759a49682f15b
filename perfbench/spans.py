"""Span tracing from outside the library.

The tracer replaces the module attributes that `run_pipeline` calls with
wrappers that record one span per call: name, start, end, parent span and
run id.  Spans stay in memory and are written out after the run.  A
layer's self time is its span's duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager
from typing import Callable


def vm_hwm_mb() -> float:
    """Peak resident set of this process so far (VmHWM), in MiB."""
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _knn_attrs(call: inspect.BoundArguments, result) -> dict:
    index, queries = call.arguments["index"], call.arguments["queries"]
    if call.arguments["restrict_to_query_category"]:
        candidates = sum(len(index.category_rows(int(c))) for c in queries.category_ids())
    else:
        candidates = len(index) * queries.n_rows
    return {"queries": queries.n_rows, "k": call.arguments["k"], "candidates": candidates}


# (module, attribute, span name, attributes taken from the bound call and
# its result).  The pipeline reaches io through the module object and
# everything else through names it imported, so io is patched on cbirkit.io
# and the rest on cbirkit.pipeline, falling back to the named module.
TARGETS = [
    ("cbirkit.io", "load_detections", "io.load_detections",
     lambda call, r: {"records": len(r)}),
    ("cbirkit.io", "load_detection_gt", "io.load_gt", None),
    ("cbirkit.io", "load_retrieval_gt", "io.load_gt", None),
    ("cbirkit.io", "load_embeddings", "io.load_embeddings",
     lambda call, r: {"rows": r.n_rows}),
    ("cbirkit.io", "save_fused_boxes", "io.save", None),
    ("cbirkit.io", "save_rankings", "io.save", None),
    ("cbirkit.io", "save_report", "io.save", None),
    ("cbirkit.pipeline", "fuse_detections", "boxes.fuse",
     lambda call, r: {"boxes_in": len(call.arguments["boxes"]), "fused_out": len(r)}),
    ("cbirkit.embeddings", "concat_features", "embeddings.concat", None),
    ("cbirkit.embeddings", "pca_fit", "embeddings.pca", None),
    ("cbirkit.embeddings", "pca_transform", "embeddings.pca", None),
    ("cbirkit.embeddings", "l2_normalize", "embeddings.pca", None),
    ("cbirkit.search", "build_index", "search.build_index", None),
    ("cbirkit.search", "knn_search", "search.knn", _knn_attrs),
    ("cbirkit.rerank", "query_expansion", "rerank.qe", None),
    ("cbirkit.rerank", "database_augmentation", "rerank.dba", None),
    ("cbirkit.rerank", "k_reciprocal_rerank", "rerank.k_reciprocal",
     lambda call, r: {"points": call.arguments["queries"].n_rows
                      + call.arguments["gallery"].n_rows}),
    ("cbirkit.evaluation", "detection_ap", "evaluation.detection_ap",
     lambda call, r: {"predictions": len(call.arguments["preds"])}),
    ("cbirkit.evaluation", "acc_at_k", "evaluation.acc_at_k", None),
]

# spans around which VmHWM is read, to attribute a rise in peak memory
HWM_SPANS = {"rerank.k_reciprocal"}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.knn_calls: list[tuple[inspect.BoundArguments, object]] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "run": self.run_id, "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": 0.0, "end": 0.0, "attrs": {}}
        self.spans.append(record)
        self._stack.append(record["id"])
        hwm_before = vm_hwm_mb() if name in HWM_SPANS else None
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if hwm_before is not None:
                record["attrs"]["hwm_rise_mb"] = vm_hwm_mb() - hwm_before

    def _wrap(self, fn: Callable, name: str, attrs_of: Callable | None) -> Callable:
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if attrs_of is not None or name == "search.knn":
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                if attrs_of is not None:
                    record["attrs"].update(attrs_of(call, result))
                if name == "search.knn":
                    self.knn_calls.append((call, result))
            return result

        return traced

    def install(self) -> None:
        pipeline = importlib.import_module("cbirkit.pipeline")
        for module_name, attr, name, attrs_of in TARGETS:
            if module_name == "cbirkit.io":
                owner = importlib.import_module(module_name)
            elif hasattr(pipeline, attr):
                owner = pipeline
            else:
                owner = importlib.import_module(module_name)
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs_of))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Per span id: duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced run.  A layer the workload never
    calls reads 0."""
    def total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    knn = [s for s in spans if s["name"] == "search.knn"]
    queries = attr_sum("search.knn", "queries")
    root = next(s for s in spans if s["name"] == "pipeline.run")
    return {
        "search.knn_s": total("search.knn"),
        "search.build_index_s": total("search.build_index"),
        "search.queries": queries,
        "search.k": max((s["attrs"]["k"] for s in knn), default=0),
        "search.candidates_per_query":
            attr_sum("search.knn", "candidates") / queries if queries else 0.0,
        "rerank.qe_s": total("rerank.qe"),
        "rerank.dba_s": total("rerank.dba"),
        "rerank.k_reciprocal_s": total("rerank.k_reciprocal"),
        "rerank.points": attr_sum("rerank.k_reciprocal", "points"),
        "rerank.hwm_rise_mb": attr_sum("rerank.k_reciprocal", "hwm_rise_mb"),
        "io.load_detections_s": total("io.load_detections"),
        "io.detection_records": attr_sum("io.load_detections", "records"),
        "boxes.fuse_s": total("boxes.fuse"),
        "boxes.boxes_in": attr_sum("boxes.fuse", "boxes_in"),
        "boxes.fused_out": attr_sum("boxes.fuse", "fused_out"),
        "evaluation.detection_ap_s": total("evaluation.detection_ap"),
        "evaluation.det_predictions": attr_sum("evaluation.detection_ap", "predictions"),
        "io.save_s": total("io.save"),
        "io.load_embeddings_s": total("io.load_embeddings"),
        "io.embedding_rows": attr_sum("io.load_embeddings", "rows"),
        "io.load_gt_s": total("io.load_gt"),
        "embeddings.concat_s": total("embeddings.concat"),
        "embeddings.pca_s": total("embeddings.pca"),
        "evaluation.acc_at_k_s": total("evaluation.acc_at_k"),
        "pipeline.run_s": root["end"] - root["start"],
        "pipeline.self_s": self_times(spans)[root["id"]],
    }
