import numpy as np
import pytest

from ocusim.optim import Adam, Param

from helpers import adam_expression_step


class TestAdam:
    @pytest.mark.parametrize("lr", [1e-3, 3e-2])
    def test_in_place_step_matches_expression_bitwise(self, lr):
        # a 0-d log-gain as in SRP, 1-d biases and 2-d weights
        rng = np.random.default_rng(0)
        shapes = [(), (7,), (5, 3), (64, 33)]
        params = [Param(rng.normal(size=s), f"p{i}") for i, s in enumerate(shapes)]
        values = [p.value.copy() for p in params]
        ms = [np.zeros_like(v) for v in values]
        vs = [np.zeros_like(v) for v in values]
        opt = Adam(params, lr=lr)
        for t in range(1, 13):
            grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
            for p, g in zip(params, grads):
                p.grad[...] = g
            opt.step()
            adam_expression_step(values, grads, ms, vs, t, lr=lr)
            for p, v in zip(params, values):
                assert np.array_equal(p.value, v), (t, p.name)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            Adam([Param(np.zeros(2))], lr=0.0)

    @pytest.mark.parametrize("lr", [-1e-3, np.nan, np.inf])
    def test_rejects_non_finite_or_negative_rate(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            Adam([Param(np.zeros(2))], lr=lr)

    @pytest.mark.parametrize("betas, name", [
        ((1.0, 0.999), "beta1"), ((-0.1, 0.999), "beta1"), ((np.nan, 0.999), "beta1"),
        ((0.9, 1.0), "beta2"), ((0.9, 1.5), "beta2"), ((0.9, np.inf), "beta2")])
    def test_rejects_betas_outside_unit_interval(self, betas, name):
        with pytest.raises(ValueError, match=name):
            Adam([Param(np.zeros(2))], betas=betas)

    @pytest.mark.parametrize("eps", [-1e-8, np.nan, np.inf])
    def test_rejects_negative_or_non_finite_eps(self, eps):
        with pytest.raises(ValueError, match="eps"):
            Adam([Param(np.zeros(2))], eps=eps)

    def test_accepts_edge_of_ranges(self):
        Adam([Param(np.zeros(2))], betas=(0.0, 0.0), eps=0.0)
