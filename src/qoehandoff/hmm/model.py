"""Gaussian-emission HMM parameter container and its text serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import DocumentError, DomainError, parse_document
from ..qoe_model import QuantizationScheme

PROB_TOL = 1e-9
VARIANCE_FLOOR = 1e-8


@dataclass(frozen=True)
class GaussianEmission:
    mean: float
    variance: float

    def __post_init__(self):
        if self.variance < VARIANCE_FLOOR:
            raise DomainError(f"variance below floor {VARIANCE_FLOOR}")


@dataclass(frozen=True)
class HmmModel:
    """Prior, row-stochastic transition matrix and one scalar Gaussian per state.

    State indices are 1-based in the public API; state 1 carries the highest
    emission mean after canonicalization (worst delay).
    """

    prior: np.ndarray
    transitions: np.ndarray
    emissions: tuple[GaussianEmission, ...]
    scheme: QuantizationScheme
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        prior = np.asarray(self.prior, dtype=float)
        tm = np.asarray(self.transitions, dtype=float)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "transitions", tm)
        object.__setattr__(self, "emissions", tuple(self.emissions))
        n = len(self.emissions)
        if prior.shape != (n,) or tm.shape != (n, n):
            raise DomainError("prior/transition shapes do not match state count")
        if abs(prior.sum() - 1.0) > PROB_TOL or (prior < 0).any():
            raise DomainError("prior is not a probability vector")
        if (tm < 0).any() or np.abs(tm.sum(axis=1) - 1.0).max() > PROB_TOL:
            raise DomainError("transition rows must each sum to 1")
        if self.scheme is not None and self.scheme.state_count != n:
            raise DomainError("quantization scheme does not match state count")

    @property
    def n_states(self) -> int:
        return len(self.emissions)

    def means(self) -> np.ndarray:
        return np.array([e.mean for e in self.emissions])

    def variances(self) -> np.ndarray:
        return np.array([e.variance for e in self.emissions])

    def frame_log_likelihood(self, observations: np.ndarray) -> np.ndarray:
        """Per-frame emission log-densities, shape (T, n_states)."""
        obs = np.asarray(observations, dtype=float)
        if obs.ndim != 1 or obs.size == 0:
            raise DomainError("observations must be a non-empty 1-D sequence")
        if not np.isfinite(obs).all():
            raise DomainError("observations must be finite")
        mu = self.means()
        var = self.variances()
        diff = obs[:, None] - mu[None, :]
        return -0.5 * (diff * diff / var + np.log(2.0 * np.pi * var))

    def to_text(self) -> str:
        """Human-readable JSON document; floats round-trip exactly."""
        doc = {
            "format": "qoehandoff-hmm/1",
            "prior": self.prior.tolist(),
            "transitions": self.transitions.tolist(),
            "emissions": [{"mean": e.mean, "variance": e.variance}
                          for e in self.emissions],
            "scheme": {"boundaries": list(self.scheme.boundaries)}
                      if self.scheme is not None else None,
            "metadata": self.metadata,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "HmmModel":
        doc = parse_document(text, "model document")
        if doc.get("format") != "qoehandoff-hmm/1":
            raise DocumentError("not a recognized model document")
        try:
            scheme = None
            if doc.get("scheme") is not None:
                scheme = QuantizationScheme(tuple(doc["scheme"]["boundaries"]))
            return cls(
                prior=np.array(doc["prior"], dtype=float),
                transitions=np.array(doc["transitions"], dtype=float),
                emissions=tuple(GaussianEmission(float(e["mean"]), float(e["variance"]))
                                for e in doc["emissions"]),
                scheme=scheme,
                metadata=doc.get("metadata", {}),
            )
        except KeyError as exc:
            raise DocumentError(f"model document lacks key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise DocumentError(f"malformed model document: {exc}") from exc


def save_model(model: HmmModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model.to_text())


def load_model(path) -> HmmModel:
    with open(path, encoding="utf-8") as fh:
        return HmmModel.from_text(fh.read())
