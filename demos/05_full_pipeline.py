"""End to end: generate a benchmark, run the pipeline, read the report.

The generator plants a known answer for every query, so the whole chain
(fusion, concatenation, search, scoring) can be checked against it. With
moderate noise the single models miss some queries while the concatenated
ensemble recovers most of them.
"""

import json
import tempfile
from pathlib import Path

from cbirkit import PipelineConfig, SyntheticSpec, generate_synthetic, run_pipeline

workdir = Path(tempfile.mkdtemp(prefix="pipeline_demo_"))
spec = SyntheticSpec(
    seed=2024,
    num_images=40,
    num_categories=6,
    gt_boxes_per_image=3,
    detector_count=3,
    jitter_sigma=3.0,
    score_sigma=0.1,
    miss_rate=0.1,
    fp_rate=0.1,
    embedding_models=3,
    embedding_dim=16,
    cluster_spread=0.6,
    noise_sigma=0.22,
)
manifest = generate_synthetic(spec, workdir)
print("generated", manifest["num_items"], "items in", workdir)

config = PipelineConfig.from_file(workdir / "config.json")
result = run_pipeline(config)

print("\ndetection AP50:", round(result.detection.ap50, 4))
print("retrieval:", {k: round(v, 4) for k, v in result.retrieval.acc.items()})
print("report written to", result.report_path)
print(json.dumps(result.report["retrieval"], indent=2))
