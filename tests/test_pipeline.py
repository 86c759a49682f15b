import json
from pathlib import Path

import numpy as np
import pytest

from cbirkit import io as formats
from cbirkit.cli import main
from cbirkit.embeddings import concat_features, l2_normalize, pca_fit, pca_transform
from cbirkit.errors import ConfigError, EmbeddingFormatError, ParseError, StageError
from cbirkit.pipeline import PipelineConfig, run_pipeline
from cbirkit.rerank import QeParams, RerankParams
from cbirkit.search import build_index, knn_search
from cbirkit.synthetic import SyntheticSpec, generate_synthetic

from util import output_under_blas_threads


def synth(tmp_path, **overrides):
    defaults = dict(seed=41, num_images=8, num_categories=3, gt_boxes_per_image=2,
                    detector_count=2, embedding_models=2, embedding_dim=8,
                    jitter_sigma=0.0, score_sigma=0.0, miss_rate=0.0, fp_rate=0.0,
                    noise_sigma=0.0, cluster_spread=1.0)
    defaults.update(overrides)
    out = tmp_path / "bench"
    generate_synthetic(SyntheticSpec(**defaults), out)
    return out


def load_config(out):
    return PipelineConfig.from_file(out / "config.json")


class TestConfigValidation:
    def base(self, **post):
        raw = {
            "embeddings": [{"data": "a.emb", "ids": "a.ids"}],
            "search": {"k": 10},
            "eval": {"ks": [1, 10]},
            "output_dir": "out",
        }
        raw.update(post)
        return raw

    def test_unknown_step(self):
        with pytest.raises(ConfigError, match="unknown post step"):
            PipelineConfig.from_dict(self.base(post=[{"step": "shrink"}]))

    def test_rerank_must_be_last(self):
        with pytest.raises(ConfigError, match="rerank"):
            PipelineConfig.from_dict(self.base(post=[{"step": "rerank"}, {"step": "qe"}]))

    def test_multi_input_needs_concat(self):
        raw = self.base()
        raw["embeddings"] = [{"data": "a", "ids": "b"}, {"data": "c", "ids": "d"}]
        with pytest.raises(ConfigError, match="concat"):
            PipelineConfig.from_dict(raw)

    def test_concat_must_come_first(self):
        raw = self.base(post=[{"step": "pca"}, {"step": "concat"}])
        raw["embeddings"] = [{"data": "a", "ids": "b"}, {"data": "c", "ids": "d"}]
        with pytest.raises(ConfigError, match="precede"):
            PipelineConfig.from_dict(raw)

    def test_duplicate_step(self):
        with pytest.raises(ConfigError, match="at most once"):
            PipelineConfig.from_dict(self.base(post=[{"step": "qe"}, {"step": "qe"}]))

    def test_ks_within_search_k(self):
        raw = self.base()
        raw["eval"] = {"ks": [1, 100]}
        with pytest.raises(ConfigError, match="search.k"):
            PipelineConfig.from_dict(raw)

    def test_restricted_search_rejects_rerank(self):
        raw = self.base(post=[{"step": "rerank"}])
        raw["search"]["restrict_to_query_category"] = True
        with pytest.raises(ConfigError, match="restrict_to_query_category.*rerank"):
            PipelineConfig.from_dict(raw)
        raw["search"]["restrict_to_query_category"] = False
        assert PipelineConfig.from_dict(raw).post[0].step == "rerank"

    def test_embeddings_required(self):
        with pytest.raises(ConfigError, match="embedding"):
            PipelineConfig.from_dict({"search": {"k": 5}, "output_dir": "o"})

    def test_digest_stable(self):
        a = PipelineConfig.from_dict(self.base())
        b = PipelineConfig.from_dict(self.base())
        assert a.digest == b.digest and len(a.digest) == 64


class TestRunPipeline:
    def test_noiseless_perfect_accuracy(self, tmp_path):
        out = synth(tmp_path)
        result = run_pipeline(load_config(out))
        assert result.retrieval.acc[1] == 1.0
        assert result.retrieval.acc[10] == 1.0
        assert result.retrieval.num_excluded == 0
        # noiseless detectors reproduce ground truth exactly
        assert result.detection is not None
        assert result.detection.ap50 == pytest.approx(1.0)

    def test_noiseless_all_steps_disabled(self, tmp_path):
        out = synth(tmp_path, embedding_models=1)
        config = load_config(out)
        assert config.post == ()
        result = run_pipeline(config)
        assert result.retrieval.acc[1] == 1.0

    def test_report_schema(self, tmp_path):
        out = synth(tmp_path)
        result = run_pipeline(load_config(out))
        with open(result.report_path) as fh:
            report = json.load(fh)
        assert set(report) == {"detection", "retrieval", "config_digest"}
        assert set(report["retrieval"]) == {"acc", "num_queries", "num_excluded"}
        assert report["retrieval"]["acc"]["1"] == 1.0
        assert report["config_digest"] == load_config(out).digest

    def test_deterministic_rankings_across_runs_and_threads(self, tmp_path):
        out = synth(tmp_path, noise_sigma=0.2, jitter_sigma=2.0, num_images=30)
        raw = json.loads((out / "config.json").read_text())
        raw["post"] = [{"step": "concat"}, {"step": "pca", "out_dim": 8},
                       {"step": "qe", "k": 3}, {"step": "dba", "k": 3}]
        (out / "config.json").write_text(json.dumps(raw))
        blobs = [Path(run_pipeline(load_config(out)).rankings_path).read_bytes()
                 for _ in range(2)]
        script = ("import sys\n"
                  "from cbirkit.pipeline import PipelineConfig, run_pipeline\n"
                  f"config = PipelineConfig.from_file({str(out / 'config.json')!r})\n"
                  "with open(run_pipeline(config).rankings_path, 'rb') as fh:\n"
                  "    sys.stdout.buffer.write(fh.read())\n")
        blobs += [output_under_blas_threads(script, n) for n in (1, 4)]
        assert blobs[0].count(b"\n") > 100
        assert blobs[1:] == blobs[:1] * 3

    def test_fused_boxes_written(self, tmp_path):
        out = synth(tmp_path)
        result = run_pipeline(load_config(out))
        fused = formats.load_detections(result.fused_path)
        assert fused and all(b.model_id == "wbf" for b in fused)

    def test_stage_error_names_stage(self, tmp_path):
        out = synth(tmp_path)
        raw = json.loads((out / "config.json").read_text())
        raw["embeddings"][0]["data"] = str(out / "missing.emb")
        with pytest.raises(StageError, match="load-embeddings"):
            run_pipeline(PipelineConfig.from_dict(raw))

    def test_step_toggles_compose(self, tmp_path):
        # pipeline with concat+pca equals manual stage-by-stage invocation
        out = synth(tmp_path, noise_sigma=0.15, num_images=12)
        raw = json.loads((out / "config.json").read_text())
        raw["post"] = [{"step": "concat"}, {"step": "pca", "whiten": True}]
        result = run_pipeline(PipelineConfig.from_dict(raw))

        models = [formats.load_embeddings(e["data"], e["ids"]) for e in raw["embeddings"]]
        parts = [m.split_by_source() for m in models]
        queries = concat_features([q for q, _ in parts])
        gallery = concat_features([g for _, g in parts])
        model = pca_fit(gallery, None, True)
        queries = l2_normalize(pca_transform(model, queries))
        gallery = l2_normalize(pca_transform(model, gallery))
        manual = knn_search(build_index(gallery), queries, 10)
        loaded = formats.load_rankings(result.rankings_path)
        assert [r.item_ids for r in loaded] == [r.item_ids for r in manual]

    @pytest.mark.parametrize("step", [{"step": "pca", "out_dim": 6}, {"step": "qe", "k": 3}])
    def test_late_concat_on_one_model_is_a_no_op(self, tmp_path, step):
        out = synth(tmp_path, embedding_models=1, noise_sigma=0.2, num_images=12)
        raw = json.loads((out / "config.json").read_text())
        blobs = []
        for post in ([], [step], [step, {"step": "concat"}]):
            raw["post"] = post
            blobs.append(Path(run_pipeline(PipelineConfig.from_dict(raw)).rankings_path)
                         .read_bytes())
        assert blobs[1] != blobs[0]
        assert blobs[2] == blobs[1]

    def test_rerank_step_runs(self, tmp_path):
        out = synth(tmp_path, noise_sigma=0.15)
        raw = json.loads((out / "config.json").read_text())
        raw["post"] = [{"step": "concat"},
                       {"step": "rerank", "k1": 10, "k2": 4, "lambda": 0.3}]
        result = run_pipeline(PipelineConfig.from_dict(raw))
        loaded = formats.load_rankings(result.rankings_path)
        assert all(len(r) == 10 for r in loaded)

    def test_qe_dba_steps_run(self, tmp_path):
        out = synth(tmp_path, noise_sigma=0.1)
        raw = json.loads((out / "config.json").read_text())
        raw["post"] = [{"step": "concat"}, {"step": "dba", "k": 2},
                       {"step": "qe", "k": 2}]
        result = run_pipeline(PipelineConfig.from_dict(raw))
        assert result.retrieval.acc[10] > 0.9

    def test_cardinality_conservation(self, tmp_path):
        out = synth(tmp_path, noise_sigma=0.2)
        result = run_pipeline(load_config(out))
        n_items = json.loads((out / "manifest.json").read_text())["num_items"]
        loaded = formats.load_rankings(result.rankings_path)
        assert len(loaded) == n_items
        assert result.retrieval.num_queries + result.retrieval.num_excluded == n_items


def outputs(result) -> list[bytes]:
    return [Path(p).read_bytes()
            for p in (result.rankings_path, result.report_path, result.fused_path)]


def rewrite_compact(path) -> None:
    """The same records, written without spaces after separators."""
    path = Path(path)
    path.write_text("".join(json.dumps(json.loads(line), separators=(",", ":")) + "\n"
                            for line in path.read_text().splitlines()))


class TestSharedIdSidecar:
    """The models of one embedding set hold the same id records; an id
    sidecar whose bytes equal an earlier model's is not parsed again."""

    @pytest.fixture
    def raw(self, tmp_path):
        out = synth(tmp_path, embedding_models=3, noise_sigma=0.2, num_images=12)
        raw = json.loads((out / "config.json").read_text())
        raw["post"] = [{"step": "concat"}, {"step": "pca", "out_dim": 8}, {"step": "qe", "k": 3}]
        return raw

    @pytest.fixture
    def parsed(self, monkeypatch):
        """The id sidecars that are parsed, in order."""
        calls, read = [], formats._read_jsonl

        def counted(path, fields, *args):
            if fields is formats._IDS:
                calls.append(str(path))
            return read(path, fields, *args)

        monkeypatch.setattr(formats, "_read_jsonl", counted)
        return calls

    def test_identical_sidecars_decoded_once(self, raw, parsed):
        sidecars = [Path(entry["ids"]).read_bytes() for entry in raw["embeddings"]]
        assert len(sidecars) == 3 and sidecars[1:] == sidecars[:1] * 2
        result = run_pipeline(PipelineConfig.from_dict(raw))
        assert parsed == [raw["embeddings"][0]["ids"]]
        assert result.retrieval.num_queries > 0

    def test_rewritten_sidecars_parsed_with_same_outputs(self, raw, parsed):
        config = PipelineConfig.from_dict(raw)
        shared = outputs(run_pipeline(config))
        parsed.clear()
        # models 1 and 2 hold model 0's records in other bytes, equal to each other's
        for entry in raw["embeddings"][1:]:
            rewrite_compact(entry["ids"])
        ids = [entry["ids"] for entry in raw["embeddings"]]
        assert Path(ids[1]).read_bytes() != Path(ids[0]).read_bytes()
        assert outputs(run_pipeline(config)) == shared
        assert parsed == ids[:2]

    def test_fewer_rows_behind_identical_sidecar(self, raw):
        entry = raw["embeddings"][2]
        m = formats.load_embeddings(entry["data"], entry["ids"])
        formats.save_embeddings(m.select(range(m.n_rows - 1)), entry["data"],
                                Path(entry["ids"]).with_suffix(".unused"))
        with pytest.raises(EmbeddingFormatError) as alone:
            formats.load_embeddings(entry["data"], entry["ids"])
        assert alone.value.code == "count_mismatch"
        assert str(alone.value) == (f"[count_mismatch] {entry['ids']}: {m.n_rows} id records "
                                    f"for {m.n_rows - 1} rows of {entry['data']}")
        with pytest.raises(StageError) as err:
            run_pipeline(PipelineConfig.from_dict(raw))
        assert err.value.stage == "load-embeddings"
        assert type(err.value.cause) is EmbeddingFormatError
        assert str(err.value.cause) == str(alone.value)

    def test_different_ids_diverge(self, raw):
        path = Path(raw["embeddings"][1]["ids"])
        lines = path.read_text().splitlines()
        record = json.loads(lines[4])
        record["item_id"] += "x"
        lines[4] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StageError, match="id maps diverge at row") as err:
            run_pipeline(PipelineConfig.from_dict(raw))
        assert err.value.stage == "concat"
        assert raw["detections"] and not Path(raw["output_dir"]).exists()

    def test_other_interleaving_diverges(self, raw):
        # the same records with the gallery rows first: the query and
        # gallery sides align, the models do not
        entry = raw["embeddings"][1]
        m = formats.load_embeddings(entry["data"], entry["ids"])
        formats.save_embeddings(m.select(np.argsort(m.sources == "query", kind="stable")),
                                entry["data"], entry["ids"])
        with pytest.raises(StageError, match="id maps diverge at row 0") as err:
            run_pipeline(PipelineConfig.from_dict(raw))
        assert err.value.stage == "concat"

    def test_bad_line_in_other_sidecar_named(self, raw):
        path = Path(raw["embeddings"][2]["ids"])
        rewrite_compact(path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:-1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StageError) as err:
            run_pipeline(PipelineConfig.from_dict(raw))
        assert type(err.value.cause) is ParseError
        assert (err.value.cause.path, err.value.cause.line) == (str(path), 3)
        assert str(err.value.cause).startswith(f"{path}:3: invalid JSON")


# (keys leading to the replaced value, new value, key path the error names);
# the base config has post [concat, qe]
BAD_CONFIGS = [
    (("serach",), {"k": 3}, "serach"),
    (("post", 1), {"step": "qe", "kk": 50}, "post[1].kk"),
    (("post", 1), {"step": "pca", "whiten": "false"}, "post[1].whiten"),
    (("post", 1), {"step": "rerank", "k1": 0}, "post[1]: k1"),
    (("post", 1), {"step": "rerank", "k1": "abc"}, "post[1].k1"),
    (("post", 1), {"step": "qe", "k": True}, "post[1].k"),
    (("post", 1), {"step": "qe", "include_self": False}, "post[1].include_self: unknown key"),
    (("post", 1), "qe", "post[1]"),
    (("search", "k"), "abc", "search.k"),
    (("search", "restrict_to_query_category"), "yes", "search.restrict_to_query_category"),
    (("eval", "ks"), 5, "eval.ks"),
    (("eval", "ks"), [1, "10"], "eval.ks[1]"),
    (("wbf", "iou_threshold"), "0.5", "wbf.iou_threshold"),
    (("wbf", "model_weights"), {"det0": "high"}, "wbf.model_weights.det0"),
    (("detections", 0), 7, "detections[0]"),
    (("embeddings", 0, "idss"), "x", "embeddings[0].idss"),
]


def _replace(raw, keys, value):
    for key in keys[:-1]:
        raw = raw[key]
    raw[keys[-1]] = value


class TestConfigRejection:
    @pytest.fixture(scope="class")
    def bench(self, tmp_path_factory):
        return synth(tmp_path_factory.mktemp("reject"))

    def config(self, bench, tmp_path, keys=(), value=None):
        raw = json.loads((bench / "config.json").read_text())
        raw["post"] = [{"step": "concat"}, {"step": "qe", "k": 2}]
        raw["output_dir"] = str(tmp_path / "run")
        if keys:
            _replace(raw, keys, value)
        return raw

    def run_cli(self, raw, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        return main(["run", "--config", str(config_path)])

    def test_base_config_runs(self, bench, tmp_path):
        assert self.run_cli(self.config(bench, tmp_path), tmp_path) == 0

    @pytest.mark.parametrize("keys, value, path", BAD_CONFIGS,
                             ids=[c[2] for c in BAD_CONFIGS])
    def test_rejected_at_parse_time(self, bench, tmp_path, capsys, keys, value, path):
        raw = self.config(bench, tmp_path, keys, value)
        with pytest.raises(ConfigError) as e:
            PipelineConfig.from_dict(raw)
        assert str(e.value).startswith(path)
        assert self.run_cli(raw, tmp_path) == 2
        assert f"error: {path}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_retrieval_gt_fails_before_writing(self, bench, tmp_path, capsys):
        # parsing alone does not need it; the run checks it before its first write
        raw = self.config(bench, tmp_path, ("eval", "retrieval_gt"), None)
        with pytest.raises(ConfigError, match="eval.retrieval_gt"):
            run_pipeline(PipelineConfig.from_dict(raw))
        assert self.run_cli(raw, tmp_path) == 2
        assert "error: eval.retrieval_gt" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_pca_out_dim_checked_before_writing(self, bench, tmp_path, capsys):
        # the bound is the data's dimension, known once the embeddings are
        # loaded: 2 models x 8-d concatenated
        raw = self.config(bench, tmp_path, ("post", 1), {"step": "pca", "out_dim": 64})
        with pytest.raises(ConfigError, match=r"^post\[1\]\.out_dim: 64 outside \[1, 16\]"):
            run_pipeline(PipelineConfig.from_dict(raw))
        assert self.run_cli(raw, tmp_path) == 2
        assert "error: post[1].out_dim" in capsys.readouterr().err
        assert not (tmp_path / "run" / "fused_boxes.jsonl").exists()

    @pytest.mark.parametrize("out_dim", [5, None])
    def test_pca_gallery_rows_checked_before_writing(self, tmp_path, capsys, out_dim):
        # 3 gallery rows of 8-d: too few for 5 components, or for all 8
        small = synth(tmp_path, num_images=3, gt_boxes_per_image=1, embedding_models=1)
        raw = json.loads((small / "config.json").read_text())
        raw["post"] = [{"step": "pca", "out_dim": out_dim}]
        raw["output_dir"] = str(tmp_path / "run")
        with pytest.raises(ConfigError, match=r"^post\[0\]\.out_dim: .* got 3$"):
            run_pipeline(PipelineConfig.from_dict(raw))
        assert self.run_cli(raw, tmp_path) == 2
        assert "error: post[0].out_dim" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_rerank_k1_checked_before_writing(self, tmp_path, capsys):
        # 10 images x 3 boxes: 30 gallery rows, fewer than k1 neighbours
        small = synth(tmp_path, num_images=10, gt_boxes_per_image=3, embedding_models=1)
        raw = json.loads((small / "config.json").read_text())
        raw["post"] = [{"step": "rerank", "k1": 500}]
        raw["output_dir"] = str(tmp_path / "run")
        with pytest.raises(ConfigError, match=r"^post\[0\]\.k1: 500 exceeds the gallery size 30$"):
            run_pipeline(PipelineConfig.from_dict(raw))
        assert self.run_cli(raw, tmp_path) == 2
        assert "error: post[0].k1: 500 exceeds the gallery size 30" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_step_params_built_at_parse_time(self):
        raw = TestConfigValidation().base(post=[
            {"step": "pca", "out_dim": 4}, {"step": "qe", "alpha": 2},
            {"step": "dba", "include_self": False}, {"step": "rerank", "lambda": 0.5}])
        pca, qe, dba, rerank = PipelineConfig.from_dict(raw).post
        assert pca.params == {"out_dim": 4, "whiten": True}
        assert qe.params == QeParams(alpha=2)
        assert dba.params == QeParams(include_self=False)
        assert rerank.params == RerankParams(lam=0.5)

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Pipeline configuration", 1)[1]
        example = section.split("```json", 1)[1].split("```", 1)[0]
        config = PipelineConfig.from_dict(json.loads(example))
        assert [s.step for s in config.post] == ["concat", "pca", "qe", "dba", "rerank"]


class TestFailedRunWritesNothing:
    """A run that fails in any stage leaves none of its outputs behind."""

    OUTPUTS = ("fused_boxes.jsonl", "rankings.tsv", "report.json")

    @pytest.fixture
    def raw(self, tmp_path):
        out = synth(tmp_path, num_images=10, gt_boxes_per_image=3)
        raw = json.loads((out / "config.json").read_text())
        raw["output_dir"] = str(tmp_path / "run")
        return raw

    def assert_fails_writing_nothing(self, raw, stage):
        assert raw["detections"] and raw["eval"]["detection_gt"]
        with pytest.raises(StageError) as err:
            run_pipeline(PipelineConfig.from_dict(raw))
        assert err.value.stage == stage
        assert not any((Path(raw["output_dir"]) / name).exists() for name in self.OUTPUTS)

    @pytest.mark.parametrize("key, stage", [("detection_gt", "load-detection-gt"),
                                            ("retrieval_gt", "load-retrieval-gt")])
    def test_invalid_ground_truth(self, raw, tmp_path, key, stage):
        bad = tmp_path / "bad_gt.jsonl"
        bad.write_text("{\n")
        raw["eval"][key] = str(bad)
        self.assert_fails_writing_nothing(raw, stage)

    def test_query_missing_from_retrieval_gt(self, raw):
        path = Path(raw["eval"]["retrieval_gt"])
        path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))
        self.assert_fails_writing_nothing(raw, "eval-ret")
