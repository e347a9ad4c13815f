"""Audio-only depression-risk screening pipeline.

WAV ingestion -> silence removal -> 4-second segmentation -> 16 acoustic
features per segment (13 MFCCs, spectral centroid, spectral complexity,
zero-crossing rate) -> standardization -> K-nearest-neighbors
classification, with cross-validated grid model selection and evaluation
reporting. Ships a deterministic synthetic cohort generator so the whole
pipeline runs without clinical recordings.

The package namespace holds the names the README and demos/ use; every
other name is imported from its module (vocalscreen.features, ...).
"""

from .audio_io import AudioClip, decode_wav, encode_wav, resample, to_mono
from .errors import VocalScreenError
from .evaluation import (confusion, default_grid, descriptive_stats, grid_select, group_t_tests,
                         precision_recall_f1)
from .features import extract_features, read_features_csv, write_features_csv
from .model import fit_scaler, knn_fit, knn_predict, load_model, save_model
from .preprocess import SilenceParams, remove_silence, segment

__version__ = "0.1.0"
