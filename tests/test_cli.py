import json

import numpy as np
import pytest

from cbirkit import io as formats
from cbirkit.cli import main
from cbirkit.synthetic import SyntheticSpec, generate_synthetic


@pytest.fixture
def bench(tmp_path):
    spec = SyntheticSpec(seed=77, num_images=8, num_categories=3,
                         gt_boxes_per_image=2, detector_count=2,
                         embedding_models=1, embedding_dim=8,
                         jitter_sigma=1.0, score_sigma=0.05,
                         miss_rate=0.0, fp_rate=0.1,
                         cluster_spread=1.0, noise_sigma=0.1)
    out = tmp_path / "bench"
    generate_synthetic(spec, out)
    return out


def run(*args):
    return main([str(a) for a in args])


class TestCli:
    def test_gen_synth_and_seed_override(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": 1, "num_images": 3}))
        assert run("--seed", 9, "gen-synth", "--spec", spec_path,
                   "--out", tmp_path / "o1") == 0
        assert run("gen-synth", "--spec", spec_path, "--out", tmp_path / "o2") == 0
        manifest1 = json.loads((tmp_path / "o1" / "manifest.json").read_text())
        manifest2 = json.loads((tmp_path / "o2" / "manifest.json").read_text())
        assert manifest1["spec"]["seed"] == 9
        assert manifest2["spec"]["seed"] == 1

    def test_fuse_then_eval_det(self, bench, tmp_path, capsys):
        fused = tmp_path / "fused.jsonl"
        assert run("fuse",
                   "--detections", bench / "detections_det0.jsonl",
                   bench / "detections_det1.jsonl",
                   "--out", fused, "--iou-threshold", 0.55) == 0
        assert formats.load_detections(fused)
        assert run("eval-det", "--preds", fused,
                   "--gt", bench / "detection_gt.jsonl",
                   "--report", tmp_path / "det.json") == 0
        out = capsys.readouterr().out
        assert "AP50" in out
        report = json.loads((tmp_path / "det.json").read_text())
        assert report["ap50"] > 0.9

    def test_search_rerank_eval_chain(self, bench, tmp_path, capsys):
        rankings = tmp_path / "rankings.tsv"
        assert run("search", "--data", bench / "embeddings_m0.emb",
                   "--ids", bench / "embeddings_m0.ids.jsonl",
                   "--k", 16, "--out", rankings) == 0
        assert run("eval-ret", "--rankings", rankings,
                   "--gt", bench / "retrieval_gt.jsonl", "--ks", "1,10",
                   "--report", tmp_path / "ret.json") == 0
        report = json.loads((tmp_path / "ret.json").read_text())
        assert report["acc"]["1"] == 1.0

        reranked = tmp_path / "reranked.tsv"
        assert run("rerank", "--data", bench / "embeddings_m0.emb",
                   "--ids", bench / "embeddings_m0.ids.jsonl",
                   "--rankings", rankings, "--k1", 8, "--k2", 3,
                   "--lambda", 0.3, "--out", reranked) == 0
        assert formats.load_rankings(reranked)

    def test_rerank_matches_queries_by_id(self, bench, tmp_path):
        data, ids = bench / "embeddings_m0.emb", bench / "embeddings_m0.ids.jsonl"
        rankings = tmp_path / "rankings.tsv"
        assert run("search", "--data", data, "--ids", ids, "--k", 16, "--out", rankings) == 0
        blocks: dict[str, list[str]] = {}
        for line in rankings.read_text().splitlines(keepends=True):
            blocks.setdefault(line.split("\t")[0], []).append(line)
        assert len(blocks) > 1
        backwards = tmp_path / "backwards.tsv"
        backwards.write_text("".join(line for q in reversed(blocks) for line in blocks[q]))
        outs = []
        for path in (rankings, backwards):
            out = tmp_path / f"reranked_{path.stem}.tsv"
            assert run("rerank", "--data", data, "--ids", ids, "--rankings", path,
                       "--k1", 8, "--k2", 3, "--lambda", 0.3, "--out", out) == 0
            outs.append({r.query_id: r for r in formats.load_rankings(out)})
        in_order, reversed_order = outs
        assert list(reversed_order) == list(reversed(blocks))
        for qid, ranking in in_order.items():
            assert reversed_order[qid].item_ids == ranking.item_ids
            assert np.array_equal(reversed_order[qid].scores, ranking.scores)

    def test_run_subcommand(self, bench, capsys):
        assert run("run", "--config", bench / "config.json") == 0
        out = capsys.readouterr().out
        assert "Acc@" in out and "rankings ->" in out

    def test_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        missing.write_text("{}")
        assert run("run", "--config", missing) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run("run", "--config", tmp_path / "nope.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope.json" in err
        assert "Traceback" not in err

    def test_gen_synth_invalid_spec_json(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"seed": 1,')
        assert run("gen-synth", "--spec", spec_path, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "invalid JSON" in err
        assert not (tmp_path / "o").exists()

    def test_gen_synth_wrong_spec_type(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"seed": 1, "num_images": "abc"}')
        assert run("gen-synth", "--spec", spec_path, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: num_images must be an integer")
        assert not (tmp_path / "o").exists()

    def test_eval_det_category_out_of_range(self, bench, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        gt.write_text(json.dumps({"image_id": "img0", "category_id": 10 ** 23,
                                  "bbox": [0, 0, 5, 5]}) + "\n")
        assert run("eval-det", "--preds", bench / "detections_det0.jsonl", "--gt", gt) == 2
        err = capsys.readouterr().err
        assert err == f"error: {gt}:1: category_id {10 ** 23} out of range\n"

    def test_eval_det_thresholds(self, bench, tmp_path, capsys):
        report = tmp_path / "det.json"
        assert run("eval-det", "--preds", bench / "detections_det0.jsonl",
                   "--gt", bench / "detection_gt.jsonl", "--thresholds", "0.5,0.75",
                   "--report", report) == 0
        assert json.loads(report.read_text())["thresholds"] == [0.5, 0.75]

    @pytest.mark.parametrize("argv, flag", [
        (["fuse", "--detections", "a.jsonl", "--out", "f.jsonl", "--weights", "{x"],
         "--weights"),
        (["fuse", "--detections", "a.jsonl", "--out", "f.jsonl", "--weights", '{"m": "x"}'],
         "--weights"),
        (["eval-ret", "--rankings", "r.tsv", "--gt", "g.jsonl", "--ks", "1,x"], "--ks"),
        (["eval-det", "--preds", "p.jsonl", "--gt", "g.jsonl", "--thresholds", "0.5,x"],
         "--thresholds"),
        (["eval-det", "--preds", "p.jsonl", "--gt", "g.jsonl", "--thresholds", "1.5"],
         "--thresholds"),
    ])
    def test_bad_flag_value(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as e:
            run(*argv)
        assert e.value.code == 2
        assert f"error: argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["search", "--data", "nope.emb", "--ids", "nope.ids.jsonl", "--k", "1", "--out", "r.tsv"],
        ["eval-det", "--preds", "nope.jsonl", "--gt", "gt.jsonl"],
    ])
    def test_missing_input_named(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'nope." in err

    @pytest.mark.parametrize("flag", ["--data", "--ids"])
    def test_eval_ret_needs_data_with_ids(self, capsys, flag):
        assert run("eval-ret", "--rankings", "r.tsv", "--gt", "gt.jsonl", flag, "x") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--data" in err and "--ids" in err

    def test_restrict_category_flag(self, bench, tmp_path):
        rankings = tmp_path / "r.tsv"
        assert run("search", "--data", bench / "embeddings_m0.emb",
                   "--ids", bench / "embeddings_m0.ids.jsonl",
                   "--k", 5, "--restrict-category", "--out", rankings) == 0
        loaded = formats.load_rankings(rankings)
        assert loaded
