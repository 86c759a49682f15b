"""The library surface that the benchmark's tracer relies on.

`perfbench/spans.py` patches the module attributes named in its TARGETS
and reads the arguments of the calls it wraps; `perfbench/child.py` calls
`run_pipeline(config, threads=...)`.  These tests run that tracer, as it
is, around two small pipelines, so that renaming or removing something
the benchmark calls fails here rather than in a benchmark run.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from cbirkit.pipeline import PipelineConfig, run_pipeline
from cbirkit.synthetic import SyntheticSpec, generate_synthetic

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

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
    seen = {s["name"] for s in tracer.spans}
    assert set(called) <= seen, sorted(set(called) - seen)
    [knn] = tracer.knn_calls
    assert knn[0].arguments["restrict_to_query_category"] is restrict
