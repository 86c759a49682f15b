"""The library surface that the benchmark relies on.

`perfbench/spans.py` patches the module attributes named in its TARGETS
(`build_index` among them) and reads the arguments of the calls it wraps;
`perfbench/child.py` calls `run_pipeline(config, threads=...)` and
spot-checks the traced searches through `rankings[i]`, the one row view
that `Rankings` keeps, and the gallery's and queries' `.ids` records;
`perfbench/workloads.py` generates the synthetic inputs with
`synth_layout`, `detection_gt`, `synth_detections`, `synth_item_centers`,
`synth_embeddings`, `retrieval_pairs` and `generate_synthetic`, taking
only `len` of the layout, and builds the multishot set with `IdRecord` and
the records constructor and writes it with `save_embeddings` and
`save_retrieval_gt`.  These tests run that code, as it is, around small
inputs, so that renaming or removing something the benchmark calls fails
here rather than in a benchmark run.
"""

import hashlib
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


@pytest.mark.parametrize("setup, specs", [
    ("_setup_detection_fusion", {
        "FUSION_DETECTION_SPEC": dict(num_images=8, num_categories=3, gt_boxes_per_image=3,
                                      detector_count=2, fp_rate=0.3),
        "FUSION_EMBEDDING_SPEC": dict(num_images=6, num_categories=3, embedding_dim=8,
                                      embedding_models=1)}),
    ("_setup_rerank_multishot", {
        "MULTISHOT": dict(n_items=6, dim=8, noise=0.1, distractors=3, distractor_noise=0.2),
        "SMALL_DETECTION_SPEC": dict(num_images=5, gt_boxes_per_image=2, detector_count=2)}),
], ids=["detection_fusion", "rerank_multishot"])
def test_workload_setup_runs(tmp_path, monkeypatch, setup, specs):
    # the setups pass the synthetic layout from synth_layout to the other
    # generators; at full size they run only in the scale test
    for name, spec in specs.items():
        monkeypatch.setattr(workloads, name, spec)
    config_path, sizes = getattr(workloads, setup)(5, tmp_path)
    result = run_pipeline(PipelineConfig.from_file(config_path), threads=workloads.THREADS)
    gt = formats.load_detection_gt(tmp_path / "detection_gt.jsonl")
    assert sizes["gt_boxes"] == len(gt)
    assert sizes["detections"] == sum(len(formats.load_detections(path))
                                      for path in json.loads(config_path.read_text())
                                      ["detections"])
    assert result.detection is not None and result.detection.ap50 > 0
    retrieval = result.report["retrieval"]
    assert retrieval["num_queries"] + retrieval["num_excluded"] == sizes["queries"]
    assert retrieval["acc"]["10"] > 0


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


# sha256 of each file below, with the output directory's path replaced by "OUT"
GENERATED = {
    "config.json": "bad0f33a5daf7de769b5d3402e629d3f88206aa99d621d420aeeff905c4e9c9e",
    "detection_gt.jsonl": "7438996aa6df74ae8106f0e66c86344e50317c6f9b259455516d0bcee70f9476",
    "detections_det0.jsonl": "8b2d517d88675b695b05f3534baa7c6164aebf60ed79fea425caf52d6070ea39",
    "detections_det1.jsonl": "63dd6e9a88b44881e74f315082e860984ffc08f3cbe8817344f5026550ea62f8",
    "embeddings_m0.emb": "a74712d8d845bf0941cf36aded1e6d22bdc18e6447d850df7aa6ade0ac5c3fe8",
    "embeddings_m0.ids.jsonl": "87b4ab81a8b3c7f5751b5e6647eef44b6a8662184b9596b5fa672fed35d66159",
    "embeddings_m1.emb": "0084af3a9a05759a86760ec5849de9226539cdfa1b3bd269c256d3d49e4715d5",
    "embeddings_m1.ids.jsonl": "87b4ab81a8b3c7f5751b5e6647eef44b6a8662184b9596b5fa672fed35d66159",
    "manifest.json": "5e3fa14b4564d117d33a55ddcdc9bafdb551ffa063ea654c4433e1282f2c7a58",
    "multishot.emb": "1f52efa350b5ec8683c6185300c1efe6238467d2723407b085285de0d3aeda62",
    "multishot.ids.jsonl": "96df8ab9022e0c3ed230d873da2e6ce65fdde29cc0aed186407a05927fabff49",
    "multishot_gt.jsonl": "637d0c13ab74dbedf71d2ea4670cf4bda8f00d2558446700890620ccc2a8d6e5",
    "retrieval_gt.jsonl": "6f8b4d94de0222da355c04294b8d1e7795bb292167dd3dee449dc134ef556201",
}


def test_generated_inputs_keep_their_bytes(tmp_path):
    # the benchmark's inputs come from these writers: a writer that moves a
    # byte changes what every workload loads
    out = tmp_path / "synth"
    generate_synthetic(SyntheticSpec(seed=3, num_images=20, detector_count=2,
                                     embedding_models=2), out)
    matrix, gt = workloads.multishot_set(3, **dict(workloads.MULTISHOT, n_items=4))
    formats.save_embeddings(matrix, out / "multishot.emb", out / "multishot.ids.jsonl")
    formats.save_retrieval_gt(gt, out / "multishot_gt.jsonl")
    assert {path.name: hashlib.sha256(path.read_bytes().replace(str(out).encode(), b"OUT"))
            .hexdigest() for path in out.iterdir()} == GENERATED
