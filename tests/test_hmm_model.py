"""Model container validation and text serialization."""

import json

import numpy as np
import pytest

from qoehandoff.errors import DocumentError, DomainError
from qoehandoff.hmm import GaussianEmission, HmmModel, load_model, save_model
from qoehandoff.hmm.model import gaussian_log_density


def two_state_model(**overrides):
    kwargs = dict(
        prior=np.array([0.7, 0.3]),
        transitions=np.array([[0.9, 0.1], [0.4, 0.6]]),
        emissions=(GaussianEmission(0.5, 0.01), GaussianEmission(0.1, 0.001)),
    )
    kwargs.update(overrides)
    return HmmModel(**kwargs)


class TestValidation:
    def test_accepts_valid_model(self):
        model = two_state_model()
        assert model.n_states == 2
        assert model.means().tolist() == [0.5, 0.1]

    def test_rejects_bad_prior(self):
        with pytest.raises(DomainError):
            two_state_model(prior=np.array([0.7, 0.4]))
        with pytest.raises(DomainError):
            two_state_model(prior=np.array([1.2, -0.2]))

    def test_rejects_bad_transitions(self):
        with pytest.raises(DomainError):
            two_state_model(transitions=np.array([[0.9, 0.2], [0.4, 0.6]]))
        with pytest.raises(DomainError):
            two_state_model(transitions=np.array([[1.1, -0.1], [0.4, 0.6]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DomainError):
            two_state_model(prior=np.array([1.0]))

    def test_variance_floor(self):
        with pytest.raises(DomainError):
            GaussianEmission(0.5, 0.0)


class TestGaussianLogDensity:
    """The one emission density against its formula, bit for bit, over the
    broadcasts its callers make and some they do not."""

    @staticmethod
    def expression(x, mean, variance):
        """The Gaussian log-density written out, each step a new array."""
        d = x - mean
        return -0.5 * (d * d / variance + np.log(2.0 * np.pi * variance))

    @pytest.mark.parametrize("x_shape, mean_shape, var_shape", [
        ((), (), ()),                      # 0-d
        ((7, 1), (3,), (3,)),              # frame_log_likelihood
        ((4, 9, 1), (4, 1, 3), (4, 1, 3)),  # the E-step
        ((5,), (), (2, 5)),                # x - mean narrower than variance
        ((6, 1), (1,), (6, 4)),
        ((), (3,), (2, 3)),
    ])
    def test_matches_the_expression_bit_for_bit(self, x_shape, mean_shape, var_shape):
        rng = np.random.default_rng(sum(x_shape + mean_shape + var_shape))
        x = rng.uniform(-0.2, 1.2, x_shape)
        mean = rng.uniform(0.0, 1.0, mean_shape)
        variance = rng.choice([1e-8, 1e-4, 0.01, 0.3], var_shape)
        got = gaussian_log_density(x, mean, variance)
        want = self.expression(x, mean, variance)
        assert np.shape(got) == np.broadcast(x, mean, variance).shape
        assert got.dtype == np.float64
        assert np.array_equal(got, want)

    def test_python_floats(self):
        got = gaussian_log_density(0.45, 0.5, 0.01)
        assert np.shape(got) == () and got.dtype == np.float64
        assert got == self.expression(0.45, 0.5, 0.01)


class TestFrameLogLikelihood:
    def test_matches_gaussian_density(self):
        model = two_state_model()
        obs = np.array([0.45])
        flp = model.frame_log_likelihood(obs)
        expected = -0.5 * ((0.45 - 0.5) ** 2 / 0.01 + np.log(2 * np.pi * 0.01))
        assert flp[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_rejects_empty_or_nonfinite(self):
        model = two_state_model()
        with pytest.raises(DomainError):
            model.frame_log_likelihood(np.array([]))
        with pytest.raises(DomainError):
            model.frame_log_likelihood(np.array([np.nan]))
        with pytest.raises(DomainError):
            model.frame_log_likelihood(np.array([[0.1, 0.2]]))


class TestSerialization:
    def test_round_trip_exact(self):
        model = two_state_model()
        restored = HmmModel.from_text(model.to_text())
        assert np.array_equal(restored.prior, model.prior)
        assert np.array_equal(restored.transitions, model.transitions)
        assert restored.emissions == model.emissions

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        model = two_state_model()
        save_model(model, path)
        restored = load_model(path)
        assert restored.emissions == model.emissions

    def test_rejects_foreign_document(self):
        with pytest.raises(DomainError):
            HmmModel.from_text('{"format": "something-else"}')

    def test_malformed_document_is_document_error(self):
        doc = json.loads(two_state_model().to_text())
        for text in ("not json", "[]",
                     json.dumps({k: v for k, v in doc.items() if k != "prior"}),
                     json.dumps({**doc, "emissions": [{"mean": 0.1}] * 2}),
                     json.dumps({**doc, "prior": [0.5, 0.2]})):
            with pytest.raises(DocumentError):
                HmmModel.from_text(text)
