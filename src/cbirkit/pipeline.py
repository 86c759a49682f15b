"""Batch orchestration: config parsing, stage execution, artifact output.

`PipelineConfig.from_dict` checks the whole config against `SCHEMA` before
any stage runs: an unknown key, a wrong JSON type or an out-of-range value
raises `ConfigError` naming its key path (e.g. `post[1].kk`), and each post
step's options are built into its parameters there.

Stages run in a fixed order: load the embeddings (each distinct id
sidecar parsed once) and the ground truth, concatenate the models when a
concat step is configured, split the one matrix into queries and
gallery, fuse detections per image, apply the other feature steps in the
listed order, search, optionally re-rank, then score.  Each stage logs
its input and output cardinalities; a failure inside one is re-raised as
`StageError` naming it.  An output_dir that cannot be a directory fails
before the first stage.  Concat and the checks that depend on the data
(unit rows unless pca comes first, a pca step's out_dim against the
embedding dimension and the gallery size, a rerank step's k1 against
the gallery size) run before the detection half.  The outputs, and the
output directory, are written only once every stage has passed, so a
failed run writes nothing.  The feature steps {pca, qe, dba}
run before search; rerank, when configured, must be the last step: it
re-ranks every gallery row for each query (`k_reciprocal_rerank` with no
initial rankings) by the blended distance straight to the top search.k,
which replace the search output.
Re-ranking keeps O(queries x search.k) output and temporaries of
O(RERANK_BLOCK x gallery rows), never a queries x gallery array.

The detection files are loaded by one `io.load_detections` call.  From
`io.SPLIT_BYTES` in all, on two usable CPUs, a forked helper parses the
last files while the run parses the first ones; the table is that of
reading them one by one.  `wait4` then counts the helper's peak RSS as a
maximum with the run's, not their sum, and RUSAGE_SELF (perfbench's
cpu_s) does not count the helper's CPU time.

Working memory of the detection half, beyond the tables it builds: each
file's parse, here or in the helper, holds one chunk of `io.CHUNK_LINES`
records as Python values; the load joins the files' tables, the one point
where the detections are held twice; `fuse_detections` holds the table, its whole-table sort keys and one block of at most
`boxes.BLOCK_BOXES` boxes; `detection_ap` holds the fused table, the
ground truth, its sort keys and TP flags and one block of images; and
`save_fused_boxes` holds one block of rows as Python values.  Each table
is dropped once its last step is done: the parts once joined, the input
table after fusion, and the detection ground truth after scoring; only
the fused table lives on, to be written.
"""

from __future__ import annotations

import hashlib
import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import NoneType, UnionType
from typing import Sequence, get_args, get_origin

from . import io as formats
from .boxes import WbfParams, fuse_detections
from .embeddings import EmbeddingMatrix, concat_features, l2_normalize, pca_fit, pca_transform
from .errors import ConfigError, StageError
from .evaluation import DetectionReport, RetrievalReport, acc_at_k, detection_ap
from .rerank import (QeParams, RerankParams, database_augmentation, k_reciprocal_rerank,
                     query_expansion)
from .search import build_index, knn_search

logger = logging.getLogger("cbirkit.pipeline")

REQUIRED = object()  # the key must be present
CALLEE = object()    # an absent key is left out, so the callee's default applies

# Per config object: key -> (accepted JSON type, default).  float accepts
# an integer, no number accepts a boolean, and `T | None` accepts null.
SCHEMA: dict[str, dict[str, tuple[object, object]]] = {
    "config": {
        "detections": (list[str], ()),
        "wbf": (dict, {}),
        "embeddings": (list[dict], REQUIRED),
        "post": (list[dict], ()),
        "search": (dict, {}),
        "eval": (dict, {}),
        "output_dir": (str, REQUIRED),
    },
    "wbf": {
        "iou_threshold": (float, CALLEE),
        "model_weights": (dict[str, float] | None, CALLEE),
        "num_models": (int | None, CALLEE),
        "score_mode": (str, CALLEE),
    },
    "embeddings": {"data": (str, REQUIRED), "ids": (str, REQUIRED)},
    "search": {"k": (int, 10), "restrict_to_query_category": (bool, False)},
    "eval": {
        "retrieval_gt": (str | None, None),
        "detection_gt": (str | None, None),
        "ks": (list[int], (1, 10)),
    },
    "concat": {"renormalize": (bool, CALLEE)},
    # whitening is on unless turned off, unlike pca_fit's default
    "pca": {"out_dim": (int | None, CALLEE), "whiten": (bool, True)},
    "qe": {"k": (int, CALLEE), "alpha": (float, CALLEE)},
    "rerank": {"k1": (int, CALLEE), "k2": (int, CALLEE), "lambda": (float, CALLEE)},
}
SCHEMA["dba"] = {**SCHEMA["qe"], "include_self": (bool, CALLEE)}

# what each post step's options are built into: keyword arguments for
# concat_features and pca_fit, a parameter dataclass for the others
STEP_PARAMS = {"concat": dict, "pca": dict, "qe": QeParams, "dba": QeParams,
               "rerank": RerankParams}
STEP_NAMES = tuple(STEP_PARAMS)
# option keys whose parameter is named differently
_RENAMED = {"lambda": "lam"}

_JSON_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list: "an array", dict: "an object"}


def check_json_type(value, spec, path: str) -> None:
    """Raise ConfigError naming `path` unless `value` has the JSON type
    `spec`: a type, `list[T]`, `dict[str, T]` or `T | None`."""
    nullable = isinstance(spec, UnionType)
    if nullable:
        if value is None:
            return
        spec = next(a for a in get_args(spec) if a is not NoneType)
    kind = get_origin(spec) or spec
    if (not isinstance(value, (int, float) if kind is float else kind)
            or (isinstance(value, bool) and kind is not bool)):
        expected = _JSON_NAMES[kind] + (" or null" if nullable else "")
        raise ConfigError(f"{path} must be {expected}, got {value!r}")
    if kind is list and get_args(spec):
        for i, item in enumerate(value):
            check_json_type(item, get_args(spec)[0], f"{path}[{i}]")
    elif kind is dict and get_args(spec):
        for key, item in value.items():
            check_json_type(item, get_args(spec)[1], f"{path}.{key}")


def _fields(raw: dict, kind: str, prefix: str) -> dict:
    """The values of config object `raw`, checked against SCHEMA[kind],
    with the table's defaults filled in.  `prefix` is the object's key path."""
    schema = SCHEMA[kind]
    for key in raw:
        if key not in schema:
            raise ConfigError(f"{prefix}{key}: unknown key; expected one of {', '.join(schema)}")
    out = {}
    for key, (spec, default) in schema.items():
        if key in raw:
            check_json_type(raw[key], spec, prefix + key)
            out[key] = raw[key]
        elif default is REQUIRED:
            raise ConfigError(f"{prefix}{key} is required")
        elif default is not CALLEE:
            out[key] = default
    return out


def _build(factory, kwargs: dict, path: str):
    """factory(**kwargs), with a range error from its checks prefixed by `path`."""
    try:
        return factory(**kwargs)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


@dataclass(frozen=True)
class PostStep:
    step: str
    # QeParams (qe, dba), RerankParams (rerank), or keyword arguments for
    # concat_features (concat) and pca_fit (pca)
    params: QeParams | RerankParams | dict


def _post_step(entry: dict, path: str) -> PostStep:
    name = entry.get("step")
    if name not in STEP_NAMES:
        raise ConfigError(f"{path}.step: unknown post step {name!r}; "
                          f"expected one of {STEP_NAMES}")
    options = _fields({k: v for k, v in entry.items() if k != "step"}, name, f"{path}.")
    kwargs = {_RENAMED.get(k, k): v for k, v in options.items()}
    return PostStep(name, _build(STEP_PARAMS[name], kwargs, path))


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
        return cls.from_dict(formats.load_json_object(path))

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        """Check `raw` against SCHEMA and build the config.  Raises
        ConfigError naming the key path of the first problem."""
        check_json_type(raw, dict, "config")
        top = _fields(raw, "config", "")

        wbf = _build(WbfParams, _fields(top["wbf"], "wbf", "wbf."), "wbf")
        embeddings = []
        for i, entry in enumerate(top["embeddings"]):
            paths = _fields(entry, "embeddings", f"embeddings[{i}].")
            embeddings.append((paths["data"], paths["ids"]))
        if not embeddings:
            raise ConfigError("embeddings: pipeline requires at least one embedding input")

        post = [_post_step(entry, f"post[{i}]") for i, entry in enumerate(top["post"])]
        names = [s.step for s in post]
        if len(names) != len(set(names)):
            raise ConfigError("each post step may appear at most once")
        if "rerank" in names and names[-1] != "rerank":
            raise ConfigError("rerank requires search and must be the last post step")
        if len(embeddings) > 1 and names[:1] != ["concat"]:
            raise ConfigError("multiple embedding inputs require a 'concat' step "
                              "that precedes the other post steps")

        search = _fields(top["search"], "search", "search.")
        if search["k"] < 1:
            raise ConfigError("search.k must be >= 1")
        if search["restrict_to_query_category"] and "rerank" in names:
            # re-ranking needs at least k1 candidates per query, which a
            # category's share of the gallery need not hold
            raise ConfigError("search.restrict_to_query_category cannot be combined "
                              "with a 'rerank' post step")

        evaluation = _fields(top["eval"], "eval", "eval.")
        ks = tuple(evaluation["ks"])
        if not ks or min(ks) < 1:
            raise ConfigError("eval.ks must be positive integers")
        if max(ks) > search["k"]:
            raise ConfigError(f"eval.ks includes {max(ks)} but search.k is {search['k']}")
        if not top["output_dir"]:
            raise ConfigError("output_dir must not be empty")

        return cls(
            detections=tuple(top["detections"]),
            wbf=wbf,
            embeddings=tuple(embeddings),
            post=tuple(post),
            search_k=search["k"],
            restrict_to_query_category=search["restrict_to_query_category"],
            retrieval_gt=evaluation["retrieval_gt"],
            detection_gt=evaluation["detection_gt"],
            eval_ks=ks,
            output_dir=top["output_dir"],
            digest=hashlib.sha256(
                json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
            ).hexdigest(),
        )


@contextmanager
def _stage(name: str):
    """Re-raise a failure inside the block as StageError naming the stage."""
    try:
        yield
    except StageError:
        raise
    except Exception as e:
        raise StageError(name, e) from e


def _check_sizes(post: Sequence[PostStep], dim: int, gallery_rows: int) -> None:
    """Raise ConfigError naming post[i].out_dim when a pca step asks for
    more than the `dim` dimensions of the (concatenated) embeddings, or
    when the gallery it is fitted on has fewer than max(2, out_dim) rows (a
    null out_dim keeps every input dimension), and post[i].k1 when a rerank
    step asks for more neighbours than the gallery holds."""
    for i, step in enumerate(post):
        if step.step == "rerank" and step.params.k1 > gallery_rows:
            raise ConfigError(f"post[{i}].k1: {step.params.k1} exceeds the gallery size "
                              f"{gallery_rows}")
        if step.step != "pca":
            continue
        out_dim = step.params.get("out_dim")
        if out_dim is not None and not 1 <= out_dim <= dim:
            raise ConfigError(f"post[{i}].out_dim: {out_dim} outside [1, {dim}], "
                              "the embedding dimension")
        components = dim if out_dim is None else out_dim
        if gallery_rows < max(2, components):
            raise ConfigError(f"post[{i}].out_dim: fitting {components} components needs "
                              f"at least {max(2, components)} gallery rows, got {gallery_rows}")


def _check_output_dir(path: str) -> None:
    """Raise ConfigError naming output_dir when the path, or its nearest
    existing ancestor, is not a directory, so that a run cannot fail there
    after every stage has passed."""
    existing = Path(path)
    while not existing.exists():
        existing = existing.parent
    if not existing.is_dir():
        raise ConfigError(f"output_dir: {str(existing)!r} is not a directory")


@dataclass
class PipelineResult:
    report: dict
    detection: DetectionReport | None
    retrieval: RetrievalReport
    rankings_path: str
    fused_path: str | None
    report_path: str


def run_pipeline(config: PipelineConfig, threads: int | None = None) -> PipelineResult:
    """Execute the configured stages and write rankings, fused boxes and the
    report JSON into config.output_dir.

    threads is accepted and ignored, so that existing callers keep
    working: every stage runs on the BLAS threads that the environment
    sets, and results do not depend on their count.
    """
    if not config.retrieval_gt:
        raise ConfigError("eval.retrieval_gt is required to score the run")
    _check_output_dir(config.output_dir)

    with _stage("load-embeddings"):
        # this run's id sidecars by their bytes, so that each distinct one is parsed once
        sidecars: dict[bytes, EmbeddingMatrix] = {}
        models = [formats.load_embeddings(d, i, sidecars) for d, i in config.embeddings]
        del sidecars  # the bytes are not needed past loading
    # the ground truth is read before any work, so that a bad file fails first
    with _stage("load-retrieval-gt"):
        retrieval_gt = formats.load_retrieval_gt(config.retrieval_gt)
    detection_gt = None
    if config.detections and config.detection_gt:
        with _stage("load-detection-gt"):
            detection_gt = formats.load_detection_gt(config.detection_gt)
    # the config puts concat first when there are several models; on one
    # model it is a no-op wherever it is listed
    concat = next((step for step in config.post if step.step == "concat"), None)
    if concat is not None:
        with _stage("concat"):
            models = [concat_features(models, **concat.params)]
    with _stage("split"):
        # a first feature step other than pca searches or expands the rows as loaded
        if next((s.step for s in config.post if s.step != "concat"), None) != "pca":
            models[-1].check_unit_rows()
        # pop, so that the one matrix is dropped once it is split
        queries, gallery = models.pop().split_by_source()
    logger.info("embeddings: %d models, queries %dx%d, gallery %dx%d", len(config.embeddings),
                queries.n_rows, queries.dim, gallery.n_rows, gallery.dim)
    _check_sizes(config.post, queries.dim, gallery.n_rows)

    detection_report: DetectionReport | None = None
    if config.detections:
        with _stage("load-detections"):
            boxes = formats.load_detections(*config.detections)
        with _stage("fuse"):
            fused = fuse_detections(boxes, config.wbf)
        logger.info("fuse: %d boxes in -> %d fused", len(boxes), len(fused))
        del boxes  # only the fused table is scored and written
        if detection_gt is not None:
            with _stage("eval-det"):
                detection_report = detection_ap(fused, detection_gt)
            logger.info("eval-det: AP50=%s on %d images",
                        detection_report.ap50, len(detection_gt.image_names))
            del detection_gt

    rerank: RerankParams | None = None
    for step in config.post:
        if step.step == "rerank":
            rerank = step.params
        elif step.step != "concat":  # concat ran on the loaded models
            with _stage(step.step):
                queries, gallery = _apply_feature_step(step, queries, gallery)
            logger.info("%s: queries %dx%d, gallery %dx%d", step.step,
                        queries.n_rows, queries.dim, gallery.n_rows, gallery.dim)

    with _stage("build-index"):
        index = build_index(gallery)
    with _stage("search"):
        rankings = knn_search(index, queries, config.search_k,
                              restrict_to_query_category=config.restrict_to_query_category)
    logger.info("search: %d queries -> %d rankings (k=%d)",
                queries.n_rows, len(rankings), config.search_k)

    if rerank is not None:
        with _stage("rerank"):
            # the first search_k of every gallery row in (d*, item_id) order
            rankings = k_reciprocal_rerank(queries, gallery, None, rerank, k=config.search_k)
        logger.info("rerank: %s", rerank)

    with _stage("eval-ret"):
        retrieval_report = acc_at_k(rankings, retrieval_gt, config.eval_ks,
                                    gallery_ids=gallery.item_ids.tolist())
    logger.info("eval-ret: %d queries scored, %d excluded",
                retrieval_report.num_queries, retrieval_report.num_excluded)

    report = {
        "detection": detection_report.to_dict() if detection_report else None,
        "retrieval": retrieval_report.to_dict(),
        "config_digest": config.digest,
    }
    # every stage has passed: only now is anything written
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    fused_path = str(out / "fused_boxes.jsonl") if config.detections else None
    if fused_path:
        formats.save_fused_boxes(fused, fused_path)
    rankings_path = str(out / "rankings.tsv")
    formats.save_rankings(rankings, rankings_path)
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
    step: PostStep, queries: EmbeddingMatrix, gallery: EmbeddingMatrix
) -> tuple[EmbeddingMatrix, EmbeddingMatrix]:
    if step.step == "pca":
        # the basis is learned on the gallery side only; rows are re-normalized
        # afterwards because search requires unit vectors
        model = pca_fit(gallery, **step.params)
        return (l2_normalize(pca_transform(model, queries)),
                l2_normalize(pca_transform(model, gallery)))
    if step.step == "qe":
        return query_expansion(queries, gallery, step.params), gallery
    return queries, database_augmentation(gallery, step.params)
