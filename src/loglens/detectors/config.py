"""Building detectors from ``DetectorConfig`` and model persistence.

``build_detector`` turns a config into an estimator, wiring in a semantic
encoder when the config asks for one. Fitted detectors persist as the flat
binary parameter container, a JSON sidecar and the training vocabulary.
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
# persistence: parameter container, JSON sidecar and training vocabulary


def save_detector(detector, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_params(detector.params_.copy_values(), directory / "params.llns")
    sidecar = {
        "config": detector.config.to_dict(),
        "threshold": getattr(detector, "threshold_", None),
        "training_seconds": getattr(detector, "training_seconds_", None),
    }
    (directory / "detector.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    (directory / "vocab.json").write_text(
        json.dumps(detector.vocab_.templates, indent=1) + "\n", encoding="utf-8")


def load_detector(directory):
    """Rebuild a fitted detector from disk: ``build_detector`` of the saved
    config and training vocabulary (so a semantic model gets its encoder
    back), holding the stored parameters.

    A malformed ``detector.json`` or ``vocab.json``, or parameters in
    ``params.llns`` other than the ones the config builds for that
    vocabulary, raise ``FormatError`` naming the file and the key or
    parameter.
    """
    directory = Path(directory)
    path = directory / "detector.json"
    sidecar = _read_json(path, lambda doc: isinstance(doc, dict), "a JSON object")
    try:
        config = DetectorConfig.from_dict(sidecar["config"])
        fitted = {f"{key}_": float(sidecar[key])
                  for key in ("threshold", "training_seconds")
                  if sidecar.get(key) is not None}
    except KeyError as err:
        raise FormatError(f"{path}: missing key {err}") from None
    except (TypeError, ValueError) as err:
        raise FormatError(f"{path}: {err}") from None
    vocab = EventVocabulary(_read_json(
        directory / "vocab.json", _is_template_list, "a JSON array of distinct strings"))
    detector = build_detector(config, vocab)
    detector.params_ = _checked_params(directory, detector, vocab,
                                       load_params(directory / "params.llns"))
    detector.vocab_ = vocab
    vars(detector).update(fitted)
    return detector


def _read_json(path: Path, valid, expected: str):
    """The JSON document at ``path``, which ``valid`` must accept."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise FormatError(f"{path}: {err}") from None
    if not valid(doc):
        raise FormatError(f"{path}: expected {expected}")
    return doc


def _is_template_list(doc) -> bool:
    return (isinstance(doc, list) and all(isinstance(t, str) for t in doc)
            and len(set(doc)) == len(doc))


def _checked_params(directory: Path, detector, vocab: EventVocabulary,
                    stored: dict) -> ParamSet:
    """The parameters ``detector`` builds for ``vocab``, holding ``stored``.
    Refuses ``stored`` unless its names and shapes are the built ones and,
    for a semantic model, its input table is the encoder's, bit for bit."""
    params = detector._build_params(vocab)
    expected = {name: tensor.shape for name, tensor in params.items()}
    got = {name: array.shape for name, array in stored.items()}
    for name in dict.fromkeys([*expected, *got]):
        if expected.get(name) != got.get(name):
            raise FormatError(
                f"{directory / 'detector.json'}: parameter {name!r} is "
                f"{got.get(name, 'missing')} in params.llns, "
                f"{expected.get(name, 'absent')} for the config and the "
                f"{len(vocab)} templates of {directory / 'vocab.json'}")
    if detector.encoder is not None and (
            stored["input_table"].tobytes() != params["input_table"].data.tobytes()):
        raise FormatError(f"{directory / 'vocab.json'}: its semantic table is not "
                          f"the 'input_table' in params.llns")
    params.load_values(stored)
    return params
