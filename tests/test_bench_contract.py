"""The library surface that the benchmark relies on.

`perfbench/spans.py` patches the module attributes named in its TARGETS
and reads the arguments of the calls it wraps; `perfbench/child.py` calls
`run_pipeline(config, threads=...)` and spot-checks the traced searches
through the rankings' row views; `perfbench/workloads.py` writes the
synthetic detections, and builds the multishot set with the records
constructor and writes it with `save_embeddings` and `save_retrieval_gt`.
These tests run that code, as it is, around small inputs, so that renaming
or removing something the benchmark calls fails here rather than in a
benchmark run.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from cbirkit import io as formats
from cbirkit.pipeline import PipelineConfig, run_pipeline
from cbirkit.synthetic import (SyntheticSpec, detection_gt, generate_synthetic, synth_detections,
                               synth_layout)

from util import boxes_to_dicts

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

# child.py imports its sibling modules by name
sys.path.append(str(ROOT / "perfbench"))
workloads = importlib.import_module("workloads")
child = importlib.import_module("child")

CONFIGS = {
    "retrieval": ([{"step": "concat"}, {"step": "pca", "out_dim": 8},
                   {"step": "qe", "k": 3}, {"step": "dba", "k": 3}], True,
                  ["io.load_detections", "io.load_gt", "io.load_embeddings", "io.save",
                   "boxes.fuse", "embeddings.concat", "embeddings.pca", "search.build_index",
                   "search.knn", "rerank.qe", "rerank.dba", "evaluation.detection_ap",
                   "evaluation.acc_at_k"]),
    "rerank": ([{"step": "concat"}, {"step": "rerank", "k1": 6, "k2": 3, "lambda": 0.3}],
               False, ["search.knn", "rerank.k_reciprocal"]),
}


def test_every_target_resolves():
    for module, attr, _, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_traced_run_reports_every_layer(tmp_path, name):
    post, restrict, called = CONFIGS[name]
    bench = tmp_path / "bench"
    generate_synthetic(SyntheticSpec(seed=7, num_images=8, num_categories=3,
                                     gt_boxes_per_image=2, detector_count=2,
                                     embedding_models=2, embedding_dim=8), bench)
    raw = json.loads((bench / "config.json").read_text())
    raw["post"] = post
    raw["search"]["restrict_to_query_category"] = restrict
    raw["output_dir"] = str(tmp_path / "run")

    tracer = spans.Tracer(name)
    tracer.install()
    try:
        with tracer.span("pipeline.run"):
            result = run_pipeline(PipelineConfig.from_dict(raw), threads=2)
    finally:
        tracer.uninstall()

    assert Path(result.report_path).exists()
    metrics = spans.layer_metrics(tracer.spans)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {layer["name"] for layer in benchmark["per_layer"]}
    # one load per model, so that io.load_embeddings_s and io.embedding_rows
    # measure the same calls however many sidecars are parsed
    loads = [s for s in tracer.spans if s["name"] == "io.load_embeddings"]
    assert len(loads) == len(raw["embeddings"]) == 2
    assert metrics["io.embedding_rows"] == sum(
        formats.load_embeddings(e["data"], e["ids"]).n_rows for e in raw["embeddings"])
    seen = {s["name"] for s in tracer.spans}
    assert set(called) <= seen, sorted(set(called) - seen)
    [knn] = tracer.knn_calls
    assert knn[0].arguments["restrict_to_query_category"] is restrict
    check = child.spot_check(tracer.knn_calls)
    assert check["queries_checked"] > 0 and check["mismatched"] == 0, check


def test_written_detections_load_back(tmp_path):
    spec = SyntheticSpec(seed=7, num_images=6, num_categories=3, gt_boxes_per_image=2,
                         detector_count=3, fp_rate=0.5)
    paths, gt_path, sizes = workloads._write_detections(spec, tmp_path)
    objects = synth_layout(spec)
    tables = [synth_detections(spec, objects, d) for d in range(spec.detector_count)]
    assert len(paths) == len(tables)
    for path, table in zip(paths, tables):
        loaded = formats.load_detections(path)
        assert boxes_to_dicts(loaded) == boxes_to_dicts(table)
        assert np.array_equal(loaded.coords, table.coords)
        assert np.array_equal(loaded.scores, table.scores)
    assert sizes["detections"] == sum(map(len, tables)) > 0
    assert (boxes_to_dicts(formats.load_detection_gt(gt_path))
            == boxes_to_dicts(detection_gt(objects)))


def test_multishot_set_loads_back(tmp_path):
    matrix, gt = workloads.multishot_set(3, n_items=4, dim=6, noise=0.1, distractors=2,
                                         distractor_noise=0.2)
    formats.save_embeddings(matrix, tmp_path / "m.emb", tmp_path / "m.ids.jsonl")
    formats.save_retrieval_gt(gt, tmp_path / "gt.jsonl")
    loaded = formats.load_embeddings(tmp_path / "m.emb", tmp_path / "m.ids.jsonl")
    assert loaded.ids == matrix.ids
    assert np.array_equal(loaded.data, matrix.data.astype(np.float32))
    assert formats.load_retrieval_gt(tmp_path / "gt.jsonl") == gt
    queries, gallery = loaded.split_by_source()
    assert sorted(gt) == sorted(queries.item_ids.tolist())
    assert set().union(*gt.values()) < set(gallery.item_ids.tolist())
