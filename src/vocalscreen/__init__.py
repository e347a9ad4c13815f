"""Audio-only depression-risk screening pipeline.

WAV ingestion -> silence removal -> 4-second segmentation -> 16 acoustic
features per segment (13 MFCCs, spectral centroid, spectral complexity,
zero-crossing rate) -> standardization -> K-nearest-neighbors
classification, with cross-validated grid model selection and evaluation
reporting. Ships a deterministic synthetic cohort generator so the whole
pipeline runs without clinical recordings.
"""

from .audio_io import (
    DEFAULT_SAMPLE_RATE,
    AudioClip,
    MalformedWav,
    UnsupportedFormat,
    decode_wav,
    encode_wav,
    load_wav,
    resample,
    save_wav,
    to_mono,
)
from .dataset import (
    SEGMENT_LEVEL,
    SPEAKER_DISJOINT,
    DatasetManifest,
    DegenerateSplit,
    DuplicatePath,
    ManifestParseError,
    ManifestRow,
    SplitSpec,
    UnknownLabel,
    load_manifest,
    save_manifest,
    split,
)
from .errors import VocalScreenError
from .evaluation import (
    ConfusionMatrix,
    EvalReport,
    Metrics,
    PipelineCandidate,
    SelectionReport,
    confusion,
    default_grid,
    descriptive_stats,
    evaluate_predictions,
    grid_select,
    group_t_tests,
    precision_recall_f1,
    two_sample_t,
)
from .features import (
    FeatureConfig,
    FeaturesFileError,
    SegmentTooShort,
    extract_features,
    mel_filterbank,
    mfcc,
    power_spectrum,
    read_features_csv,
    spectral_centroid,
    spectral_complexity,
    write_features_csv,
    zero_crossing_rate,
)
from .model import (
    CorruptModelFile,
    EvenK,
    KnnModel,
    ScalerParams,
    SchemaVersionMismatch,
    TooFewSamples,
    fit_scaler,
    identity_scaler,
    knn_fit,
    knn_predict,
    load_model,
    minkowski_distance,
    save_model,
    transform,
)
from .preprocess import SegmentSet, SilenceParams, remove_silence, segment
from .synth import ClassProfile, CohortSpec, default_profiles, generate_cohort

__version__ = "0.1.0"
