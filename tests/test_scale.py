"""The scale script, run end to end on a tiny spec."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_scale_script_runs_every_workload(tmp_path):
    out = tmp_path / "bench.json"
    # the checkout as its own baseline: both trees must give the same rankings
    subprocess.run([sys.executable, str(ROOT / "scale" / "run.py"), "--scales", "0.05",
                    "--seed", "0", "--baseline", str(ROOT), "--out", str(out),
                    "--work", str(tmp_path / "work")], check=True, capture_output=True)
    bench = json.loads(out.read_text())
    assert [(r["workload"], r["scale"]) for r in bench["results"]] == [
        ("retrieval_chain", 0.05), ("rerank_multishot", 0.05), ("detection_fusion", 0.05)]
    layers = {"retrieval_chain": "rerank.dba_s", "rerank_multishot": "rerank.k_reciprocal_s",
              "detection_fusion": "boxes.fuse_s"}
    for result in bench["results"]:
        assert result["sizes"]["queries"] > 0 and "pinned" not in result
        baseline, checkout = result["summary"]["baseline"], result["summary"]["checkout"]
        assert len(checkout["rankings_sha256"]) == 64
        assert checkout["rankings_sha256"] == baseline["rankings_sha256"]
        assert checkout["fused_sha256"] == baseline["fused_sha256"]
        # only detection_fusion keeps its detection half, scaled
        fuses = result["workload"] == "detection_fusion"
        assert (checkout["fused_sha256"] is not None) == fuses
        assert (checkout["ap"] is not None) == fuses
        if fuses:
            assert result["sizes"]["num_images"] == result["sizes"]["images"] == 100
        # each tree wrote the inputs once, byte for byte the same
        assert {tree: len(s) for tree, s in result["setup_s"].items()} == {
            "baseline": 1, "checkout": 1}
        for tree, summary in result["summary"].items():
            assert summary["setup_s"] == result["setup_s"][tree][0] > 0
            assert summary["run_hwm_mb"] == result["runs"][tree][0]["run_hwm_mb"]
            assert summary["cpu_children_s"] == result["runs"][tree][0]["cpu_children_s"] >= 0
        assert 0.0 < checkout["acc_at_1"] <= checkout["acc_at_10"] <= 1.0
        for run in result["runs"]["checkout"]:
            assert run["peak_rss_mb"] > 0 and run["wall_s"] > 0 and run["ref_s"] > 0
            assert run["cpu_children_s"] >= 0
            # the run's own peak is part of the process's: wait4 reads the
            # kernel's high-water mark, which it raises lazily, so that it may
            # trail a VmHWM read during the run by a few hundred KiB
            assert 0 < run["run_hwm_mb"] <= run["peak_rss_mb"] + 1.0
            assert run["layers"][layers[result["workload"]]] > 0
    assert not (tmp_path / "work" / "retrieval_chain-x0.05").exists()


def test_scale_script_fails_when_the_baseline_writes_other_inputs(tmp_path):
    # a baseline whose generator draws its boxes on another canvas
    shutil.copytree(ROOT / "src", tmp_path / "other" / "src")
    synthetic = tmp_path / "other" / "src" / "cbirkit" / "synthetic.py"
    text = synthetic.read_text()
    assert "CANVAS = 640.0\n" in text
    synthetic.write_text(text.replace("CANVAS = 640.0\n", "CANVAS = 641.0\n"))
    done = subprocess.run([sys.executable, str(ROOT / "scale" / "run.py"), "--scales", "0.05",
                           "--seed", "0", "--baseline", str(tmp_path / "other"),
                           "--out", str(tmp_path / "bench.json"),
                           "--work", str(tmp_path / "work")], capture_output=True, text=True)
    assert done.returncode != 0 and not (tmp_path / "bench.json").exists()
    assert ("retrieval_chain x0.05: the inputs that checkout writes differ from baseline's: "
            "detection_gt.jsonl, detections_det0.jsonl" in done.stderr)
