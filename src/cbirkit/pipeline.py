"""Batch orchestration: config parsing, stage execution, artifact output.

Stages run in a fixed frame — fuse detections per image, assemble
query/gallery embeddings, apply the configured feature steps in order,
search, optionally re-rank, then score — and each stage logs its input and
output cardinalities.  The feature steps {concat, pca, qe, dba} run before
search; rerank, when configured, must be the last step and runs on the
search output (search is widened to the full gallery so re-ranking sees a
complete initial ranking, then results are truncated back to the
configured K).
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from . import io as formats
from .boxes import FusedBox, ScoredBox, WbfParams, wbf_fuse
from .embeddings import EmbeddingMatrix, concat_features, l2_normalize, pca_fit, pca_transform
from .errors import ConfigError, StageError
from .evaluation import DetectionReport, RetrievalReport, acc_at_k, detection_ap
from .rerank import QeParams, RerankParams, database_augmentation, k_reciprocal_rerank, query_expansion
from .search import build_index, knn_search

logger = logging.getLogger("cbirkit.pipeline")

STEP_NAMES = ("concat", "pca", "qe", "dba", "rerank")


@dataclass(frozen=True)
class PostStep:
    step: str
    options: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PipelineConfig:
    detections: tuple[str, ...]
    wbf: WbfParams
    embeddings: tuple[tuple[str, str], ...]  # (data path, ids path) per model
    post: tuple[PostStep, ...]
    search_k: int
    restrict_to_query_category: bool
    retrieval_gt: str | None
    detection_gt: str | None
    eval_ks: tuple[int, ...]
    output_dir: str
    digest: str = ""

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError(f"{path}: invalid JSON: {e}") from None
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        digest = hashlib.sha256(
            json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()

        wbf_raw = dict(raw.get("wbf") or {})
        weights = wbf_raw.get("model_weights")
        wbf = WbfParams(
            iou_threshold=wbf_raw.get("iou_threshold", 0.55),
            model_weights=dict(weights) if weights else None,
            num_models=wbf_raw.get("num_models"),
            score_mode=wbf_raw.get("score_mode", "rescale"),
        )

        embeddings = []
        for e in raw.get("embeddings") or []:
            if not isinstance(e, dict) or "data" not in e or "ids" not in e:
                raise ConfigError(f"embedding input must carry 'data' and 'ids' paths: {e!r}")
            embeddings.append((str(e["data"]), str(e["ids"])))
        if not embeddings:
            raise ConfigError("pipeline requires at least one embedding input")

        post = []
        for entry in raw.get("post") or []:
            entry = dict(entry)
            name = entry.pop("step", None)
            if name not in STEP_NAMES:
                raise ConfigError(f"unknown post step {name!r}; expected one of {STEP_NAMES}")
            post.append(PostStep(name, entry))
        names = [s.step for s in post]
        if len(names) != len(set(names)):
            raise ConfigError("each post step may appear at most once")
        if "rerank" in names and names[-1] != "rerank":
            raise ConfigError("rerank requires search and must be the last post step")
        feature_steps = [n for n in names if n != "rerank"]
        if len(embeddings) > 1:
            if "concat" not in feature_steps:
                raise ConfigError("multiple embedding inputs require a 'concat' step")
            if feature_steps[0] != "concat":
                raise ConfigError("'concat' must precede the other feature steps")

        search_raw = dict(raw.get("search") or {})
        search_k = int(search_raw.get("k", 10))
        if search_k < 1:
            raise ConfigError("search.k must be >= 1")
        restrict = bool(search_raw.get("restrict_to_query_category", False))
        if restrict and "rerank" in names:
            # re-ranking needs at least k1 candidates per query, which a
            # category's share of the gallery need not hold
            raise ConfigError("search.restrict_to_query_category cannot be combined "
                              "with a 'rerank' post step")

        eval_raw = dict(raw.get("eval") or {})
        ks = tuple(int(k) for k in eval_raw.get("ks", [1, 10]))
        if not ks or any(k < 1 for k in ks):
            raise ConfigError("eval.ks must be positive integers")
        if max(ks) > search_k:
            raise ConfigError(f"eval.ks includes {max(ks)} but search.k is {search_k}")

        output_dir = raw.get("output_dir")
        if not output_dir:
            raise ConfigError("output_dir is required")

        return cls(
            detections=tuple(str(p) for p in raw.get("detections") or []),
            wbf=wbf,
            embeddings=tuple(embeddings),
            post=tuple(post),
            search_k=search_k,
            restrict_to_query_category=restrict,
            retrieval_gt=eval_raw.get("retrieval_gt"),
            detection_gt=eval_raw.get("detection_gt"),
            eval_ks=ks,
            output_dir=str(output_dir),
            digest=digest,
        )


def fuse_detections(boxes: Sequence[ScoredBox], params: WbfParams) -> list[FusedBox]:
    """Fuse a mixed-image detection list image by image (sorted by image id)."""
    by_image: dict[str, list[ScoredBox]] = {}
    for b in boxes:
        by_image.setdefault(b.image_id, []).append(b)
    fused: list[FusedBox] = []
    for image_id in sorted(by_image):
        fused.extend(wbf_fuse(by_image[image_id], params))
    return fused


def _stage(name: str):
    def wrap(fn):
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except StageError:
                raise
            except Exception as e:
                raise StageError(name, e) from e
        return run
    return wrap


@dataclass
class PipelineResult:
    report: dict
    detection: DetectionReport | None
    retrieval: RetrievalReport
    rankings_path: str
    fused_path: str | None
    report_path: str


def run_pipeline(config: PipelineConfig, threads: int = 1) -> PipelineResult:
    """Execute the configured stages and write rankings, fused boxes and the
    report JSON into config.output_dir."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    detection_report: DetectionReport | None = None
    fused_path: str | None = None
    if config.detections:
        boxes = _stage("load-detections")(
            lambda: [b for p in config.detections for b in formats.load_detections(p)]
        )()
        fused = _stage("fuse")(fuse_detections)(boxes, config.wbf)
        logger.info("fuse: %d boxes in -> %d fused", len(boxes), len(fused))
        fused_path = str(out / "fused_boxes.jsonl")
        formats.save_fused_boxes(fused, fused_path)
        if config.detection_gt:
            gt = _stage("load-detection-gt")(formats.load_detection_gt)(config.detection_gt)
            detection_report = _stage("eval-det")(detection_ap)(
                [f.to_scored() for f in fused], gt
            )
            logger.info("eval-det: AP50=%s on %d images",
                        detection_report.ap50, len(gt))

    models = _stage("load-embeddings")(
        lambda: [formats.load_embeddings(d, i) for d, i in config.embeddings]
    )()
    split = _stage("split")(lambda: [m.split_by_source() for m in models])()
    query_parts = [q for q, _ in split]
    gallery_parts = [g for _, g in split]
    logger.info("embeddings: %d models, %d queries, %d gallery rows",
                len(models), query_parts[0].n_rows, gallery_parts[0].n_rows)

    queries, gallery = query_parts[0], gallery_parts[0]
    rerank_step: PostStep | None = None
    for step in config.post:
        if step.step == "rerank":
            rerank_step = step
            continue
        queries, gallery = _stage(step.step)(_apply_feature_step)(
            step, queries, gallery, query_parts, gallery_parts
        )
        logger.info("%s: queries %dx%d, gallery %dx%d", step.step,
                    queries.n_rows, queries.dim, gallery.n_rows, gallery.dim)

    index = _stage("build-index")(build_index)(
        gallery, config.restrict_to_query_category
    )
    k_search = gallery.n_rows if rerank_step is not None else config.search_k
    rankings = _stage("search")(knn_search)(
        index, queries, k_search,
        restrict_to_query_category=config.restrict_to_query_category,
        threads=threads,
    )
    logger.info("search: %d queries -> %d rankings (k=%d)",
                queries.n_rows, len(rankings), k_search)

    if rerank_step is not None:
        params = RerankParams(
            k1=int(rerank_step.options.get("k1", 20)),
            k2=int(rerank_step.options.get("k2", 6)),
            lam=float(rerank_step.options.get("lambda", 0.3)),
        )
        rankings = _stage("rerank")(k_reciprocal_rerank)(
            queries, gallery, rankings, params, threads=threads
        )
        logger.info("rerank: k1=%d k2=%d lambda=%.3f", params.k1, params.k2, params.lam)

    rankings = [r.head(config.search_k) for r in rankings]
    rankings_path = str(out / "rankings.tsv")
    formats.save_rankings(rankings, rankings_path)

    if not config.retrieval_gt:
        raise ConfigError("eval.retrieval_gt is required to score the run")
    gt = _stage("load-retrieval-gt")(formats.load_retrieval_gt)(config.retrieval_gt)
    retrieval_report = _stage("eval-ret")(acc_at_k)(
        rankings, gt, config.eval_ks, gallery_ids=gallery.item_ids.tolist()
    )
    logger.info("eval-ret: %d queries scored, %d excluded",
                retrieval_report.num_queries, retrieval_report.num_excluded)

    report = {
        "detection": detection_report.to_dict() if detection_report else None,
        "retrieval": retrieval_report.to_dict(),
        "config_digest": config.digest,
    }
    report_path = str(out / "report.json")
    formats.save_report(report, report_path)
    return PipelineResult(
        report=report,
        detection=detection_report,
        retrieval=retrieval_report,
        rankings_path=rankings_path,
        fused_path=fused_path,
        report_path=report_path,
    )


def _apply_feature_step(
    step: PostStep,
    queries: EmbeddingMatrix,
    gallery: EmbeddingMatrix,
    query_parts: list[EmbeddingMatrix],
    gallery_parts: list[EmbeddingMatrix],
) -> tuple[EmbeddingMatrix, EmbeddingMatrix]:
    opts = step.options
    if step.step == "concat":
        renorm = bool(opts.get("renormalize", True))
        return (concat_features(query_parts, renorm),
                concat_features(gallery_parts, renorm))
    if step.step == "pca":
        # the basis is learned on the gallery side only; rows are re-normalized
        # afterwards because search requires unit vectors
        model = pca_fit(gallery, opts.get("out_dim"), bool(opts.get("whiten", True)))
        return (l2_normalize(pca_transform(model, queries)),
                l2_normalize(pca_transform(model, gallery)))
    params = QeParams(
        k=int(opts.get("k", 10)),
        alpha=float(opts.get("alpha", 0.0)),
        include_self=bool(opts.get("include_self", True)),
    )
    if step.step == "qe":
        return query_expansion(queries, build_index(gallery), params), gallery
    if step.step == "dba":
        return queries, database_augmentation(gallery, params)
    raise ConfigError(f"unhandled step {step.step!r}")
