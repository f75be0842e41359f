"""Gaussian-emission HMM parameter container and its text serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..errors import DocumentError, DomainError, parse_document, read_document_text

PROB_TOL = 1e-9
VARIANCE_FLOOR = 1e-8


def gaussian_log_density(x, mean, variance):
    """Gaussian log-density of `x` under (`mean`, `variance`), broadcast
    element-wise, each step into one array of the full broadcast shape;
    the one emission density of fitting and filtering."""
    d = np.subtract(x, mean, np.empty(np.broadcast(x, mean, variance).shape))
    np.multiply(d, d, d)
    np.divide(d, variance, d)
    np.add(d, np.log(2.0 * np.pi * variance), d)
    return np.multiply(d, -0.5, d)


def _json_numbers(doc: dict, key: str, ndim: int):
    """`doc[key]`, JSON numbers nested `ndim` deep, as floats; TypeError for
    anything else, so a string such as "0.5", a bool or null is not converted."""
    array = np.array(doc[key], dtype=object)
    if array.ndim != ndim or not all(type(x) in (int, float) for x in array.flat):
        raise TypeError(f"{key} must be " + ("a JSON number", "a list of JSON numbers",
                                             "a list of lists of JSON numbers")[ndim])
    return array.astype(float).tolist()


@dataclass(frozen=True)
class GaussianEmission:
    mean: float
    variance: float

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.variance)):
            raise DomainError("emission mean and variance must be finite")
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

    def __post_init__(self):
        prior = np.asarray(self.prior, dtype=float)
        tm = np.asarray(self.transitions, dtype=float)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "transitions", tm)
        object.__setattr__(self, "emissions", tuple(self.emissions))
        n = len(self.emissions)
        if prior.shape != (n,) or tm.shape != (n, n):
            raise DomainError("prior/transition shapes do not match state count")
        if not (np.isfinite(prior).all() and np.isfinite(tm).all()):
            raise DomainError("prior and transitions must be finite")
        if abs(prior.sum() - 1.0) > PROB_TOL or (prior < 0).any():
            raise DomainError("prior is not a probability vector")
        if (tm < 0).any() or np.abs(tm.sum(axis=1) - 1.0).max() > PROB_TOL:
            raise DomainError("transition rows must each sum to 1")

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
        return gaussian_log_density(obs[:, None], self.means(), self.variances())

    def to_text(self) -> str:
        """Human-readable JSON document; floats round-trip exactly."""
        doc = {
            "format": "qoehandoff-hmm/1",
            "prior": self.prior.tolist(),
            "transitions": self.transitions.tolist(),
            "emissions": [{"mean": e.mean, "variance": e.variance}
                          for e in self.emissions],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "HmmModel":
        """Parse a model document; keys outside the format, such as the
        `scheme` and `metadata` of older documents, are ignored."""
        doc = parse_document(text, "model document")
        if doc.get("format") != "qoehandoff-hmm/1":
            raise DocumentError("not a recognized model document")
        try:
            return cls(
                prior=_json_numbers(doc, "prior", 1),
                transitions=_json_numbers(doc, "transitions", 2),
                emissions=tuple(GaussianEmission(_json_numbers(e, "mean", 0),
                                                 _json_numbers(e, "variance", 0))
                                for e in doc["emissions"]),
            )
        except KeyError as exc:
            raise DocumentError(f"model document lacks key {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise DocumentError(f"malformed model document: {exc}") from exc


def save_model(model: HmmModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model.to_text())


def load_model(path) -> HmmModel:
    return HmmModel.from_text(read_document_text(path, "model document"))
