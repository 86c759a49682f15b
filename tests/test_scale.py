"""The scale script, run end to end on a tiny spec."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_scale_script_runs_both_workloads(tmp_path):
    out = tmp_path / "bench.json"
    # the checkout as its own baseline: both trees must give the same rankings
    subprocess.run([sys.executable, str(ROOT / "scale" / "run.py"), "--scales", "0.05",
                    "--seed", "0", "--baseline", str(ROOT), "--out", str(out),
                    "--work", str(tmp_path / "work")], check=True, capture_output=True)
    bench = json.loads(out.read_text())
    assert [(r["workload"], r["scale"]) for r in bench["results"]] == [
        ("retrieval_chain", 0.05), ("rerank_multishot", 0.05)]
    layers = {"retrieval_chain": "rerank.dba_s", "rerank_multishot": "rerank.k_reciprocal_s"}
    for result in bench["results"]:
        assert result["sizes"]["queries"] > 0 and "pinned" not in result
        baseline, checkout = result["summary"]["baseline"], result["summary"]["checkout"]
        assert len(checkout["rankings_sha256"]) == 64
        assert checkout["rankings_sha256"] == baseline["rankings_sha256"]
        assert 0.0 < checkout["acc_at_1"] <= checkout["acc_at_10"] <= 1.0
        for run in result["runs"]["checkout"]:
            assert run["peak_rss_mb"] > 0 and run["wall_s"] > 0 and run["ref_s"] > 0
            assert run["layers"][layers[result["workload"]]] > 0
    assert not (tmp_path / "work" / "retrieval_chain-x0.05").exists()
