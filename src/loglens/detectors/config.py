"""Building detectors from ``DetectorConfig`` and model persistence.

``build_detector`` turns a config into an estimator. Fitted detectors persist
as the flat binary parameter container, a JSON sidecar and the training
vocabulary.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..autodiff import ParamSet, load_params, save_params
from ..exceptions import FormatError
from ..ingest import EventVocabulary, read_json, read_vocab, write_vocab
from ..schema import pointed
from .autoencoder import AutoencoderDetector
from .base import DetectorConfig
from .forecast import LstmForecastDetector, TransformerForecastDetector
from .supervised import BilstmAttentionDetector, CnnDetector

_CLASSES = {cls.family: cls for cls in (
    LstmForecastDetector, TransformerForecastDetector, AutoencoderDetector,
    BilstmAttentionDetector, CnnDetector)}


def build_detector(config: DetectorConfig, vocab=None):
    """Instantiate the estimator a config describes. ``vocab`` is unused:
    ``fit`` derives the semantic encoder from the config and the training
    vocabulary. It stays because ``perfbench/workloads.py`` passes one."""
    return _CLASSES[config.family](config)


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
    write_vocab(detector.vocab_, directory / "vocab.json")


def load_detector(directory):
    """Rebuild a fitted detector from disk: ``build_detector`` of the saved
    config, given the training vocabulary as ``fit`` gives it (so a semantic
    model derives its encoder again), holding the stored parameters.

    A malformed ``detector.json`` (its config is checked as a run config's
    detector is, at ``/config``), ``vocab.json`` or ``params.llns``, or
    parameters in ``params.llns`` other than the ones the config builds for
    that vocabulary, raise ``FormatError`` naming the file and the key or
    parameter.
    """
    directory = Path(directory)
    path = directory / "detector.json"
    sidecar = read_json(path)
    if not isinstance(sidecar, dict):
        raise FormatError(f"{path}: expected a JSON object")
    try:
        with pointed("/config"):
            config = DetectorConfig.from_json(sidecar["config"])
        fitted = {f"{key}_": float(sidecar[key])
                  for key in ("threshold", "training_seconds")
                  if sidecar.get(key) is not None}
    except KeyError as err:
        raise FormatError(f"{path}: missing key {err}") from None
    except (TypeError, ValueError) as err:
        raise FormatError(f"{path}: {err}") from None
    vocab = read_vocab(directory / "vocab.json")
    detector = build_detector(config)
    detector._set_vocab(vocab)
    detector.params_ = _checked_params(directory, detector, vocab,
                                       load_params(directory / "params.llns"))
    vars(detector).update(fitted)
    return detector


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
    if detector.config.semantics and (
            stored["input_table"].tobytes() != params["input_table"].data.tobytes()):
        raise FormatError(f"{directory / 'vocab.json'}: its semantic table is not "
                          f"the 'input_table' in params.llns")
    params.load_values(stored)
    return params
