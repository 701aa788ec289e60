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

    def test_accepts_edge_of_ranges(self):
        # the rate's range is open at 0 and at inf: the extreme floats inside pass
        for lr in (5e-324, 1.7e308):
            assert Adam([Param(np.zeros(2))], lr=lr).lr == lr
