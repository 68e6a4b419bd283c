import numpy as np
import pytest

from entlqg import (HOMODYNE_Q, JOINT_HOMODYNE, FeedbackGain, MeasurementModel, NopoParams,
                    SchemeId, build_plant, closed_loop, conditional_V, diffusion_matrix,
                    drift_matrix, lyapunov_steady, measurement_model, optimal_gain,
                    symmetric_family_W)
from entlqg.dynamics import is_hurwitz
from entlqg.nopo import heterodyne_gain, heterodyne_stable, homodyne_gain, homodyne_stable
from oracles import MEASUREMENTS


class TestClosedLoop:
    def test_zero_gain_identity(self):
        plant = build_plant(NopoParams(0.3))
        A, D = drift_matrix(plant), diffusion_matrix(plant)
        loop = closed_loop(A, D, FeedbackGain(np.zeros((4, 4))),
                           measurement_model(plant, HOMODYNE_Q))
        assert np.array_equal(loop.A_prime, A)
        assert np.allclose(loop.D_prime, D, atol=1e-16)

class TestOptimalGain:
    @pytest.mark.parametrize("chi", [0.05, 0.2, 0.35])
    def test_unconditional_state_reaches_conditional(self, chi):
        p = NopoParams(chi)
        plant = build_plant(p)
        W = conditional_V(p, SchemeId.NONLOCAL)
        meas = measurement_model(plant, JOINT_HOMODYNE)
        loop = closed_loop(drift_matrix(plant), diffusion_matrix(plant),
                           optimal_gain(W, meas), meas)
        V = lyapunov_steady(loop.A_prime, loop.D_prime)
        assert np.max(np.abs(V.data - W.data)) <= 1e-8

    def test_zero_for_trivial_inputs(self):
        meas = MeasurementModel(C=np.ones((4, 4)), Gamma=np.zeros((4, 4)))
        gain = optimal_gain(symmetric_family_W(0.0, 0.0), meas)
        # W = 0 makes the first term vanish; Gamma = 0 kills the second
        assert np.allclose(gain.BF, 0.0)

    def test_closed_loop_always_hurwitz(self):
        rng = np.random.default_rng(23)
        for chi in np.linspace(0.02, 0.45, 8):
            p = NopoParams(chi)
            plant = build_plant(p)
            for scheme, u in MEASUREMENTS.items():
                W = conditional_V(p, scheme)
                meas = measurement_model(plant, u)
                loop = closed_loop(drift_matrix(plant), diffusion_matrix(plant),
                                   optimal_gain(W, meas), meas)
                assert is_hurwitz(loop.A_prime)


class TestGainMatrices:
    def test_homodyne_zero(self):
        assert np.array_equal(homodyne_gain(0.0, 0.0).BF, np.zeros((4, 4)))

    def test_homodyne_entries(self):
        BF = homodyne_gain(0.0, 0.25).BF
        assert BF[0, 0] == pytest.approx(0.25 / np.sqrt(2), abs=1e-12)
        assert BF[0, 1] == pytest.approx(-0.25 / np.sqrt(2), abs=1e-12)
        assert BF[0, 0] == pytest.approx(0.1767766953, abs=1e-9)
        assert np.allclose(BF[1], 0.0) and np.allclose(BF[3], 0.0)

    def test_homodyne_mode_swap_symmetry(self):
        # relabeling the modes (rows) together with their currents (columns)
        # leaves the gain invariant
        BF = homodyne_gain(0.13, -0.4).BF
        Px = np.zeros((4, 4))
        Px[0, 2] = Px[2, 0] = Px[1, 3] = Px[3, 1] = 1.0
        Py = np.zeros((4, 4))
        Py[0, 1] = Py[1, 0] = Py[2, 3] = Py[3, 2] = 1.0
        assert np.allclose(Px @ BF @ Py.T, BF, atol=1e-15)

    def test_heterodyne_zero(self):
        assert np.array_equal(heterodyne_gain(0.0).BF, np.zeros((4, 4)))

    def test_heterodyne_entries(self):
        mu = -0.19098300562505255
        BF = heterodyne_gain(mu).BF
        assert BF[0, 1] == pytest.approx(mu, abs=1e-15)
        assert BF[2, 0] == pytest.approx(mu, abs=1e-15)
        assert BF[1, 3] == pytest.approx(-mu, abs=1e-15)
        assert BF[3, 2] == pytest.approx(-mu, abs=1e-15)
        assert np.count_nonzero(BF) == 4

    def test_gain_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FeedbackGain(np.array([[np.nan]]))


class TestStabilityWindows:
    def test_homodyne_examples(self):
        assert homodyne_stable(0.25, 0.0, 0.25)        # lam- = chi admissible
        assert not homodyne_stable(0.25, 0.2, 0.0)     # 0.2 > 1/4 - chi/2 = 0.125
        for chi in np.linspace(0.0, 0.49, 10):
            assert homodyne_stable(chi, 0.0, 0.0)

    def test_heterodyne_examples(self):
        assert heterodyne_stable(0.25, -0.19098300562505255)
        assert not heterodyne_stable(0.25, 0.3)
        for chi in np.linspace(0.0, 0.49, 10):
            assert heterodyne_stable(chi, 0.0)
