"""Box fusion, global descriptors, exact retrieval, re-ranking and scoring
for image-search pipelines, downstream of the neural networks."""

from .boxes import (
    Detections,
    FusedDetections,
    WbfParams,
    fuse_detections,
    iou,
    nms,
)
from .descriptors import PoolingSpec, combine_descriptors, pool
from .embeddings import (
    EmbeddingMatrix,
    IdRecord,
    PcaModel,
    concat_features,
    l2_normalize,
    pca_fit,
    pca_transform,
)
from .errors import (
    CbirkitError,
    ConfigError,
    DataError,
    EmbeddingFormatError,
    ParseError,
    StageError,
)
from .evaluation import (
    DetectionReport,
    RetrievalReport,
    acc_at_k,
    detection_ap,
)
from .pipeline import PipelineConfig, run_pipeline
from .rerank import (
    QeParams,
    RerankParams,
    database_augmentation,
    every_gallery_row,
    k_reciprocal_rerank,
    query_expansion,
)
from .search import RankingList, Rankings, RetrievalIndex, build_index, knn_search
from .synthetic import SyntheticSpec, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "Detections", "FusedDetections", "WbfParams", "iou", "nms", "fuse_detections",
    "PoolingSpec", "pool", "combine_descriptors",
    "EmbeddingMatrix", "IdRecord", "PcaModel",
    "l2_normalize", "concat_features", "pca_fit", "pca_transform",
    "RetrievalIndex", "RankingList", "Rankings", "build_index", "knn_search",
    "QeParams", "RerankParams", "query_expansion", "database_augmentation",
    "every_gallery_row", "k_reciprocal_rerank",
    "DetectionReport", "RetrievalReport", "detection_ap", "acc_at_k",
    "PipelineConfig", "run_pipeline",
    "SyntheticSpec", "generate_synthetic",
    "CbirkitError", "ConfigError", "DataError", "ParseError",
    "EmbeddingFormatError", "StageError",
]
