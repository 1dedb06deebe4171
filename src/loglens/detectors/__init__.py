from .base import (
    FAMILIES,
    SUPERVISED_FAMILIES,
    BaseDetector,
    DetectorConfig,
    Verdict,
    target_ranks,
)
from .forecast import LstmForecastDetector, TransformerForecastDetector
from .autoencoder import AutoencoderDetector, nearest_rank_quantile
from .supervised import BilstmAttentionDetector, CnnDetector
from .config import build_detector, load_detector, save_detector

__all__ = [
    "BaseDetector", "Verdict", "target_ranks",
    "LstmForecastDetector", "TransformerForecastDetector",
    "AutoencoderDetector", "nearest_rank_quantile",
    "BilstmAttentionDetector", "CnnDetector",
    "DetectorConfig", "FAMILIES", "SUPERVISED_FAMILIES",
    "build_detector", "load_detector", "save_detector",
]
