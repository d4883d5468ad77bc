"""Bimodal speech + eye-gaze continuous affect prediction toolkit."""

from .errors import ConfigError, DataError, DivergenceError, GazeAffectError
from .experiments import predict_trace
from .fusion import (
    NormStats,
    convert_shift,
    denormalize_target,
    fit_norm_stats,
    fuse_features,
    normalize_features,
    normalize_target,
    shift_annotations,
)
from .gaze_features import GAZE_FEATURE_NAMES, WindowSpec, extract_gaze_features
from .metrics import ccc, ccc_flagged, pearson, pearson_flagged, sse
from .network import (
    GradientCheckReport,
    LayerSpec,
    NetworkParams,
    NetworkSpec,
    TrainConfig,
    TrainedModel,
    bptt_gradients,
    gradient_check,
    init_network,
    inject_noise,
    load_model,
    predict,
    save_model,
    train_network,
)
from .synthetic import SyntheticCorpusSpec, generate_synthetic_corpus
from .timeline import (
    AnnotationTrace,
    CorpusManifest,
    FeatureMatrix,
    FrameRate,
    GazeLog,
    frames_for_duration,
    load_annotation_csv,
    load_corpus_manifest,
    load_feature_csv,
    load_gaze_log_csv,
    save_feature_csv,
)

__version__ = "0.1.0"
