"""Building detectors from ``DetectorConfig`` and model persistence.

``build_detector`` turns a config into an estimator, wiring in a semantic
encoder when the config asks for one. Fitted detectors persist as the flat
binary parameter container plus a JSON sidecar.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..autodiff import ParamSet, load_params, save_params
from ..exceptions import ConfigurationError, FormatError
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


def make_encoder(config: DetectorConfig,
                 vocab: EventVocabulary | None) -> SemanticEncoder | None:
    """The semantic encoder a config asks for, built from ``vocab`` with a
    seed derived from the config seed; ``None`` for index inputs."""
    if not config.semantics:
        return None
    if vocab is None:
        raise ConfigurationError("semantic detector needs a vocabulary")
    return SemanticEncoder(vocab, dim=config.resolved_embed_dim,
                           seed=derive_seed(config.seed, "semantic"))


def build_detector(config: DetectorConfig, vocab: EventVocabulary | None = None):
    """Instantiate the estimator a config describes."""
    return _CLASSES[config.family](config, make_encoder(config, vocab))


# ---------------------------------------------------------------------------
# persistence: parameter container + JSON sidecar


def save_detector(detector, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_params(detector.params_.copy_values(), directory / "params.llns")
    sidecar = {
        "config": detector.config.to_dict(),
        "vocab_size": detector.vocab_size_,
        "threshold": getattr(detector, "threshold_", None),
        "training_seconds": getattr(detector, "training_seconds_", None),
    }
    (directory / "detector.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_detector(directory):
    """Rebuild a fitted detector from disk, with the config it was saved with.

    Semantic models carry their frozen input table inside the parameter
    container, so every detector is rebuilt without an encoder or vocabulary
    and reads its stored table; events beyond the stored vocabulary map to
    the reserved unknown id. A malformed ``detector.json``, or one whose
    config describes other parameters than ``params.llns`` holds, raises
    ``FormatError`` naming the file and the key or parameter.
    """
    directory = Path(directory)
    path = directory / "detector.json"
    sidecar = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(sidecar, dict):
        raise FormatError(f"{path}: expected a JSON object")
    try:
        config = DetectorConfig.from_dict(sidecar["config"])
        fitted = {"vocab_size_": int(sidecar["vocab_size"])}
        for key in ("threshold", "training_seconds"):
            if sidecar.get(key) is not None:
                fitted[f"{key}_"] = float(sidecar[key])
    except KeyError as err:
        raise FormatError(f"{path}: missing key {err}") from None
    except (TypeError, ValueError) as err:
        raise FormatError(f"{path}: {err}") from None
    stored = load_params(directory / "params.llns")
    _check_params(path, config, fitted["vocab_size_"], stored)
    detector = _CLASSES[config.family](config)
    detector.params_ = ParamSet(config.seed)
    detector.params_.load_values(stored)
    vars(detector).update(fitted)
    return detector


def _check_params(path, config: DetectorConfig, vocab_size: int, stored: dict) -> None:
    """Refuse ``stored`` parameters unless their names and shapes are the ones
    ``config`` builds for ``vocab_size`` event ids."""
    vocab = EventVocabulary([f"event {i}" for i in range(vocab_size)])
    params = build_detector(config, vocab)._build_params(vocab)
    expected = {name: tensor.shape for name, tensor in params.items()}
    got = {name: array.shape for name, array in stored.items()}
    for name in dict.fromkeys([*expected, *got]):
        if expected.get(name) != got.get(name):
            raise FormatError(
                f"{path}: parameter {name!r} is {got.get(name, 'missing')} in "
                f"params.llns, {expected.get(name, 'absent')} in the config")
