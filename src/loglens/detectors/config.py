"""Declarative detector configuration and model persistence.

``DetectorConfig`` is the bench/CLI-facing description of one detector run;
``build_detector`` turns it into an estimator, wiring in a semantic encoder
when the config asks for one. Fitted detectors persist as the flat binary
parameter container plus a JSON sidecar.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from ..autodiff import load_params, save_params
from ..exceptions import ConfigurationError
from ..ingest import EventVocabulary
from ..rng import derive_seed
from ..sequencing import SemanticEncoder
from .autoencoder import AutoencoderDetector
from .forecast import LstmForecastDetector, TransformerForecastDetector
from .supervised import BilstmAttentionDetector, CnnDetector

FAMILIES = ("lstm_forecast", "transformer_forecast", "autoencoder",
            "bilstm_attention", "cnn")
FORECAST_FAMILIES = ("lstm_forecast", "transformer_forecast")
SUPERVISED_FAMILIES = ("bilstm_attention", "cnn")
UNSUPERVISED_FAMILIES = ("lstm_forecast", "transformer_forecast", "autoencoder")

DEFAULT_SEMANTIC_DIM = 32


@dataclass
class DetectorConfig:
    """Hyperparameters for one detector; every family accepts both input
    modes. ``embed_dim`` defaults to 16 for index inputs and 32 for semantic
    vectors when left unset."""

    family: str
    semantics: bool = False
    k: int = 10
    window_size: int = 10
    step_size: int = 1
    hidden: int = 64
    layers: int = 2
    heads: int = 4
    embed_dim: int | None = None
    max_len: int = 50
    epochs: int = 10
    batch_size: int = 128
    lr: float = 1e-3
    threshold_quantile: float = 0.98
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown detector family {self.family!r}")
        if self.k < 1:
            raise ConfigurationError("k must be >= 1")

    @property
    def resolved_embed_dim(self) -> int:
        if self.embed_dim is not None:
            return self.embed_dim
        return DEFAULT_SEMANTIC_DIM if self.semantics else 16

    @property
    def name(self) -> str:
        return f"{self.family}[{'semantic' if self.semantics else 'index'}]"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "DetectorConfig":
        return cls(**doc)


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
    common = dict(epochs=config.epochs, batch_size=config.batch_size,
                  lr=config.lr, seed=config.seed, encoder=encoder)
    embed = config.resolved_embed_dim
    if config.family == "lstm_forecast":
        return LstmForecastDetector(
            window_size=config.window_size, step_size=config.step_size,
            k=config.k, hidden=config.hidden, layers=config.layers,
            embed_dim=embed, **common)
    if config.family == "transformer_forecast":
        return TransformerForecastDetector(
            window_size=config.window_size, step_size=config.step_size,
            k=config.k, hidden=config.hidden, layers=config.layers,
            heads=config.heads, embed_dim=embed, **common)
    if config.family == "autoencoder":
        return AutoencoderDetector(
            window_size=config.window_size, step_size=config.step_size,
            hidden=config.hidden, threshold_quantile=config.threshold_quantile,
            **common)
    if config.family == "bilstm_attention":
        return BilstmAttentionDetector(
            max_len=config.max_len, hidden=config.hidden, embed_dim=embed, **common)
    if config.family == "cnn":
        return CnnDetector(
            max_len=config.max_len, n_filters=config.hidden, embed_dim=embed, **common)
    raise ConfigurationError(f"unknown detector family {config.family!r}")


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
    container, so no encoder or vocabulary is needed; events beyond the stored
    vocabulary map to the reserved unknown id.
    """
    directory = Path(directory)
    sidecar = json.loads((directory / "detector.json").read_text(encoding="utf-8"))
    config = DetectorConfig.from_dict(sidecar["config"])
    detector = build_detector(config, encoder=None) if not config.semantics else None
    if detector is None:
        # build without recreating the encoder; the stored table is reused
        plain = DetectorConfig.from_dict({**sidecar["config"], "semantics": False})
        detector = build_detector(plain)
        detector._loaded_semantic = True
    values = load_params(directory / "params.llns")
    from ..autodiff import ParamSet

    params = ParamSet(config.seed)
    params.load_values(values)
    detector.params_ = params
    detector.vocab_size_ = int(sidecar["vocab_size"])
    if sidecar.get("threshold") is not None:
        detector.threshold_ = float(sidecar["threshold"])
    if sidecar.get("training_seconds") is not None:
        detector.training_seconds_ = float(sidecar["training_seconds"])
    return detector, config
