"""Building detectors from ``DetectorConfig`` and model persistence.

``build_detector`` turns a config into an estimator, wiring in a semantic
encoder when the config asks for one. Fitted detectors persist as the flat
binary parameter container plus a JSON sidecar.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from ..autodiff import ParamSet, load_params, save_params
from ..exceptions import ConfigurationError
from ..ingest import EventVocabulary
from ..rng import derive_seed
from ..sequencing import SemanticEncoder
from .autoencoder import AutoencoderDetector
from .base import DetectorConfig
from .forecast import LstmForecastDetector, TransformerForecastDetector
from .supervised import BilstmAttentionDetector, CnnDetector

_CLASSES = {cls.family: cls for cls in (
    LstmForecastDetector, TransformerForecastDetector, AutoencoderDetector,
    BilstmAttentionDetector, CnnDetector)}


def make_encoder(config: DetectorConfig, vocab: EventVocabulary) -> SemanticEncoder | None:
    if not config.semantics:
        return None
    return SemanticEncoder(vocab, dim=config.resolved_embed_dim,
                           seed=derive_seed(config.seed, "semantic"))


def build_detector(config: DetectorConfig, vocab: EventVocabulary | None = None,
                   encoder: SemanticEncoder | None = None):
    """Instantiate the estimator a config describes.

    When ``semantics`` is set and no encoder is supplied, one is built from
    ``vocab`` with a seed derived from the config seed.
    """
    if config.semantics and encoder is None:
        if vocab is None:
            raise ConfigurationError("semantic detector needs a vocabulary or encoder")
        encoder = make_encoder(config, vocab)
    cls = _CLASSES[config.family]
    return cls(encoder=encoder, **{n: getattr(config, n) for n in cls.hyperparameters})


# ---------------------------------------------------------------------------
# persistence: parameter container + JSON sidecar


def save_detector(detector, config: DetectorConfig, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_params(detector.params_.copy_values(), directory / "params.llns")
    sidecar = {
        "config": config.to_dict(),
        "vocab_size": detector.vocab_size_,
        "threshold": getattr(detector, "threshold_", None),
        "training_seconds": getattr(detector, "training_seconds_", None),
    }
    (directory / "detector.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_detector(directory):
    """Rebuild a fitted detector from disk.

    Semantic models carry their frozen input table inside the parameter
    container, so every detector is rebuilt without an encoder or vocabulary
    and reads its stored table; events beyond the stored vocabulary map to
    the reserved unknown id.
    """
    directory = Path(directory)
    sidecar = json.loads((directory / "detector.json").read_text(encoding="utf-8"))
    config = DetectorConfig.from_dict(sidecar["config"])
    detector = build_detector(replace(config, semantics=False))
    detector.params_ = ParamSet(config.seed)
    detector.params_.load_values(load_params(directory / "params.llns"))
    detector.vocab_size_ = int(sidecar["vocab_size"])
    if sidecar.get("threshold") is not None:
        detector.threshold_ = float(sidecar["threshold"])
    if sidecar.get("training_seconds") is not None:
        detector.training_seconds_ = float(sidecar["training_seconds"])
    return detector, config
