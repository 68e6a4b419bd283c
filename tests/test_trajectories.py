import numpy as np
import pytest

from entlqg import (CHI_MAX, HETERODYNE, HOMODYNE_Q, FeedbackGain, NopoParams,
                    PlantModel, SchemeId, SimConfig, StabilityError, Unravelling, build_plant,
                    closed_loop, closed_loop_for_scheme, conditional_V, cost_matrix,
                    diffusion_matrix, drift_matrix, lyapunov_steady,
                    measurement_model, open_loop_V, optimal_gain, optimal_nonlocal,
                    optimize_scheme, regulation_cost, regulation_cost_sem,
                    riccati_rhs, riccati_steady, scheme_realization,
                    simulate_conditional)
from entlqg.trajectories import _BLOCK, _BURN_IN, _trajectory_rng
from entlqg.unravelling import RICCATI_DERIVATIVE_TOL, riccati_map, riccati_propagator
from rk4 import rk4_step

ZERO_GAIN = FeedbackGain(np.zeros((4, 4)))
MC_FLOOR = 1e-9


def q_homodyne_W(chi):
    """Stationary conditional covariance under q-homodyne detection, in closed form."""
    return conditional_V(NopoParams(chi), SchemeId.NONE)


@pytest.fixture(scope="module")
def zero_gain_run():
    plant = build_plant(NopoParams(0.25))
    cfg = SimConfig(dt=5e-3, t_final=40.0, n_traj=300, seed=11)
    return simulate_conditional(plant, HOMODYNE_Q, ZERO_GAIN, cfg, v0=q_homodyne_W(0.25))


@pytest.fixture(scope="module")
def optimal_run():
    p = NopoParams(0.3)
    plant = build_plant(p)
    u, gain = scheme_realization(p, optimal_nonlocal(p))
    cfg = SimConfig(dt=1e-3, t_final=20.0, n_traj=200, seed=5)
    stats = simulate_conditional(plant, u, gain, cfg, v0=riccati_steady(plant, u))
    return plant, u, stats


class TestDeterminism:
    def test_identical_seed_bitwise(self):
        plant = build_plant(NopoParams(0.2))
        cfg = SimConfig(dt=1e-2, t_final=5.0, n_traj=16, seed=99)
        a = simulate_conditional(plant, HOMODYNE_Q, ZERO_GAIN, cfg, v0=q_homodyne_W(0.2))
        b = simulate_conditional(plant, HOMODYNE_Q, ZERO_GAIN, cfg, v0=q_homodyne_W(0.2))
        assert np.array_equal(a.mean_outer, b.mean_outer)
        assert np.array_equal(a.outer_by_traj, b.outer_by_traj)
        assert np.array_equal(a.mean_by_traj, b.mean_by_traj)
        assert np.array_equal(a.v_c_final.data, b.v_c_final.data)

    def test_prefix_of_larger_ensemble_bitwise(self):
        # each trajectory owns its noise stream, so the ensemble size does not
        # change a trajectory's aggregates
        plant = build_plant(NopoParams(0.2))
        small, large = (simulate_conditional(plant, HOMODYNE_Q, ZERO_GAIN,
                                             SimConfig(dt=1e-2, t_final=5.0, n_traj=k,
                                                       seed=17),
                                             v0=q_homodyne_W(0.2))
                        for k in (5, 300))
        assert np.array_equal(small.outer_by_traj, large.outer_by_traj[:5])
        assert np.array_equal(small.mean_by_traj, large.mean_by_traj[:5])

    def test_different_seed_differs(self):
        plant = build_plant(NopoParams(0.2))
        cfg1 = SimConfig(dt=1e-2, t_final=5.0, n_traj=16, seed=1)
        cfg2 = SimConfig(dt=1e-2, t_final=5.0, n_traj=16, seed=2)
        a = simulate_conditional(plant, HOMODYNE_Q, ZERO_GAIN, cfg1, v0=q_homodyne_W(0.2))
        b = simulate_conditional(plant, HOMODYNE_Q, ZERO_GAIN, cfg2, v0=q_homodyne_W(0.2))
        assert not np.array_equal(a.mean_outer, b.mean_outer)


class TestConditionalCovariance:
    def test_stays_on_riccati_fixed_point(self, optimal_run):
        plant, u, stats = optimal_run
        W = riccati_steady(plant, u)
        assert np.max(np.abs(stats.v_c_final.data - W.data)) <= 1e-6

    def test_fixed_point_start_is_kept_exactly(self):
        p = NopoParams(0.25)
        plant = build_plant(p)
        W = riccati_steady(plant, HETERODYNE)
        cfg = SimConfig(dt=1e-2, t_final=3.0, n_traj=2, seed=0)
        stats = simulate_conditional(plant, HETERODYNE, ZERO_GAIN, cfg, v0=W)
        assert np.array_equal(stats.v_c_final.data, W.data)

    def test_fixed_point_at_chi_max_is_held(self):
        # max|dW/dt| is 3e-11 on max|W| = 1.25e5: a fixed point relative to
        # the size of W, held exactly, so the zero noise coefficient draws nothing
        p = NopoParams(CHI_MAX)
        plant = build_plant(p)
        result = optimal_nonlocal(p)
        u, gain = scheme_realization(p, result)
        cfg = SimConfig(t_final=5.0, n_traj=4, seed=0)
        stats = simulate_conditional(plant, u, gain, cfg, v0=result.V)
        assert np.array_equal(stats.v_c_final.data, result.V.data)
        assert np.all(stats.outer_by_traj == 0)

    @pytest.mark.parametrize("dt", [1e-2, 1e-3])
    def test_transient_matches_rk4(self, dt):
        # the exact linear-fractional map against a fine RK4 integration of
        # the Riccati equation, from the open-loop state to T = 2
        p = NopoParams(0.25)
        plant = build_plant(p)
        A, D = drift_matrix(plant), diffusion_matrix(plant)
        meas = measurement_model(plant, HOMODYNE_Q)
        V = open_loop_V(p).data
        for _ in range(2000):
            V = rk4_step(lambda X: riccati_rhs(A, D, meas.C, meas.Gamma, X), V, 1e-3)
        cfg = SimConfig(dt=dt, t_final=2.0, n_traj=2, seed=0)
        stats = simulate_conditional(plant, HOMODYNE_Q, ZERO_GAIN, cfg, v0=open_loop_V(p))
        assert np.max(np.abs(V - open_loop_V(p).data)) > 1e-2   # a real transient
        assert np.max(np.abs(stats.v_c_final.data - V)) <= 1e-10

    def test_step_size_insensitive(self):
        # the covariance map is exact, so halving dt moves the endpoint only
        # by rounding
        p = NopoParams(0.25)
        plant = build_plant(p)
        finals = []
        for dt in (4e-3, 2e-3, 1e-3):
            cfg = SimConfig(dt=dt, t_final=6.0, n_traj=1, seed=0)
            stats = simulate_conditional(plant, HOMODYNE_Q, ZERO_GAIN, cfg,
                                         v0=open_loop_V(p))
            finals.append(stats.v_c_final.data)
        assert np.max(np.abs(finals[0] - finals[1])) <= 1e-9
        assert np.max(np.abs(finals[1] - finals[2])) <= 1e-9

    def test_custom_start_converges(self):
        p = NopoParams(0.25)
        plant = build_plant(p)
        cfg = SimConfig(dt=2e-3, t_final=60.0, n_traj=1, seed=0)
        stats = simulate_conditional(plant, HOMODYNE_Q, ZERO_GAIN, cfg,
                                     v0=open_loop_V(p))
        W = riccati_steady(plant, HOMODYNE_Q)
        assert np.max(np.abs(stats.v_c_final.data - W.data)) <= 1e-6


def _expm_by_eig(M):
    # independent of the simulator's Taylor _expm; M = A_cl dt is diagonalizable
    lam, E = np.linalg.eig(M)
    return ((E * np.exp(lam)) @ np.linalg.inv(E)).real


def _midpoint_reference(plant, u, gain, cfg, v0, held=False):
    """Per-step exponential-midpoint means on the simulator's own draws.

    From ``v0`` the covariance is stepped one linear-fractional map at a
    time over the whole horizon, or with ``held`` kept at ``v0``. Returns
    the time-averaged means and outer products, and the final covariance.
    """
    n_steps, dt = cfg.n_steps, cfg.dt
    k_burn = int(_BURN_IN * n_steps)
    A, D = drift_matrix(plant), diffusion_matrix(plant)
    meas = measurement_model(plant, u)
    A_cl = A + gain.BF @ meas.C
    half = _expm_by_eig(0.5 * dt * A_cl)
    Phi_mean = half @ half
    V = v0.data
    n = len(V)
    Phi = riccati_propagator(A, D, meas.C, meas.Gamma, dt)
    noise = np.stack([_trajectory_rng(cfg.seed, i).normal(size=(n_steps, len(meas.C)))
                      for i in range(cfg.n_traj)]) * np.sqrt(dt)
    X = np.zeros((cfg.n_traj, n))
    SX, SXX = np.zeros_like(X), np.zeros((cfg.n_traj, n, n))
    for k in range(n_steps):
        K = V @ meas.C.T + meas.Gamma.T + gain.BF
        X = X @ Phi_mean.T + noise[:, k] @ (half @ K).T
        if not held:
            V = ((Phi[:n, :n] @ V + Phi[:n, n:])
                 @ np.linalg.inv(Phi[n:, :n] @ V + Phi[n:, n:]))
        if k >= k_burn:
            SX += X
            SXX += np.einsum("ci,cj->cij", X, X)
    return SX / (n_steps - k_burn), SXX / (n_steps - k_burn), V


class TestMeanRecursion:
    @pytest.mark.parametrize("transient", [False, True])
    def test_matches_per_step_midpoint_reference(self, transient):
        # 600 steps: two full noise blocks and a partial one, with the
        # burn-in ending inside the second block. From the open-loop state the
        # reference steps the covariance one linear-fractional map at a time.
        p = NopoParams(0.25)
        plant = build_plant(p)
        u, gain = scheme_realization(p, optimize_scheme(p, SchemeId.LOCAL_III))
        cfg = SimConfig(dt=1e-2, t_final=6.0, n_traj=7, seed=13)
        n_steps, k_burn = cfg.n_steps, int(_BURN_IN * cfg.n_steps)
        assert n_steps % _BLOCK and k_burn % _BLOCK
        v0 = open_loop_V(p) if transient else riccati_steady(plant, u)
        stats = simulate_conditional(plant, u, gain, cfg, v0=v0)
        refs = _midpoint_reference(plant, u, gain, cfg, v0, held=not transient)
        for got, ref in zip((stats.mean_by_traj, stats.outer_by_traj,
                             stats.v_c_final.data), refs):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_covariance_held_from_first_fixed_point_block(self, monkeypatch):
        # Switched on from the open-loop state, the covariance reaches its
        # fixed point mid-run; from the end of that block it is held, and
        # the means match a reference that propagates it at every step.
        p = NopoParams(0.3)
        plant = build_plant(p)
        u, gain = scheme_realization(p, optimize_scheme(p, SchemeId.HETERODYNE))
        cfg = SimConfig(dt=1e-2, t_final=40.0, n_traj=8, seed=23)
        ends = []

        def recording_block(V, powers):
            Vs = riccati_map(V, powers)
            ends.append(Vs[-1])
            return Vs

        monkeypatch.setattr("entlqg.trajectories.riccati_map", recording_block)
        v0 = open_loop_V(p)
        stats = simulate_conditional(plant, u, gain, cfg, v0=v0)

        A, D = drift_matrix(plant), diffusion_matrix(plant)
        meas = measurement_model(plant, u)
        rates = [np.max(np.abs(riccati_rhs(A, D, meas.C, meas.Gamma, V))) for V in ends]
        assert len(ends) < -(-cfg.n_steps // _BLOCK)   # stopped mid-run
        assert min(rates[:-1]) > RICCATI_DERIVATIVE_TOL >= rates[-1]
        assert np.array_equal(stats.v_c_final.data, ends[-1])
        W = riccati_steady(plant, u).data
        assert np.max(np.abs(stats.v_c_final.data - W)) <= 1e-10
        _, ref_outer, _ = _midpoint_reference(plant, u, gain, cfg, v0)
        ref = ref_outer.mean(axis=0)
        assert np.max(np.abs(stats.mean_outer - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_covariance_path_computed_once_per_block(self, monkeypatch):
        # The transient path is shared by every row chunk: its block count
        # does not grow with the number of trajectories.
        p = NopoParams(0.3)
        plant = build_plant(p)
        u, gain = scheme_realization(p, optimize_scheme(p, SchemeId.HETERODYNE))
        calls = []

        def counted(V, powers):
            calls.append(V)
            return riccati_map(V, powers)

        monkeypatch.setattr("entlqg.trajectories.riccati_map", counted)
        for n_traj in (64, 512, 1000):
            calls.clear()
            cfg = SimConfig(dt=1e-2, t_final=40.0, n_traj=n_traj, seed=3)
            simulate_conditional(plant, u, gain, cfg, v0=open_loop_V(p))
            assert len(calls) == 9

    @pytest.mark.parametrize("scheme", [SchemeId.HETERODYNE, SchemeId.LOCAL_III])
    def test_stationary_covariance_at_largest_step(self, scheme):
        # The chain P = Phi P Phi^T + dt H K K^T H^T (H = e^{A_cl dt/2}) at the
        # dt cap lands near the continuous stationary covariance of the means;
        # the Euler chain at the same step misses it by first order in dt.
        p = NopoParams(0.3)
        plant = build_plant(p)
        u, gain = scheme_realization(p, optimize_scheme(p, scheme))
        meas = measurement_model(plant, u)
        A_cl = drift_matrix(plant) + gain.BF @ meas.C
        K = riccati_steady(plant, u).data @ meas.C.T + meas.Gamma.T + gain.BF
        exact = lyapunov_steady(A_cl, K @ K.T).data
        dt = 1e-2
        half = _expm_by_eig(0.5 * dt * A_cl)

        def stationary(Phi, L):
            # row-major vec(Phi P Phi^T) = (Phi kron Phi) vec(P)
            n = len(Phi)
            P = np.linalg.solve(np.eye(n * n) - np.kron(Phi, Phi), (L @ L.T).ravel())
            return P.reshape(n, n)

        def rel_error(P):
            return np.max(np.abs(P - exact)) / np.max(np.abs(exact))

        assert rel_error(stationary(half @ half, np.sqrt(dt) * half @ K)) <= 1e-5
        assert rel_error(stationary(np.eye(4) + dt * A_cl, np.sqrt(dt) * K)) > 1e-5

    def test_zero_noise_coefficient_draws_nothing(self, monkeypatch):
        # The nonlocal gain is built from the closed-form W, so started there
        # the noise coefficient is exactly zero and no stream is opened; from
        # riccati_steady's W (2.5e-12 away) it is not, and the draw is scaled
        # to nothing.
        p = NopoParams(0.3)
        plant = build_plant(p)
        result = optimal_nonlocal(p)
        u, gain = scheme_realization(p, result)
        cfg = SimConfig(t_final=20.0, n_traj=40, seed=7)
        drawn = simulate_conditional(plant, u, gain, cfg, v0=riccati_steady(plant, u))

        def no_draw(seed, index):
            raise AssertionError("noise drawn for K = 0")

        monkeypatch.setattr("entlqg.trajectories._trajectory_rng", no_draw)
        silent = simulate_conditional(plant, u, gain, cfg, v0=result.V)
        assert np.all(silent.mean_outer == 0)
        assert np.all(silent.outer_by_traj == 0) and np.all(silent.mean_by_traj == 0)
        assert np.array_equal(silent.v_c_final.data, result.V.data)
        assert np.max(np.abs(drawn.mean_outer)) > 0
        assert np.max(np.abs(drawn.mean_outer - silent.mean_outer)) <= 1e-20

    def test_zero_noise_coefficient_off_the_fixed_point_draws(self):
        # K is zero only at the start: the covariance then moves and the
        # noise reaches the means, so the draw cannot be skipped
        p = NopoParams(0.25)
        plant = build_plant(p)
        V0 = open_loop_V(p)
        meas = measurement_model(plant, HETERODYNE)
        gain = optimal_gain(V0, meas)
        assert not np.any(V0.data @ meas.C.T + meas.Gamma.T + gain.BF)
        cfg = SimConfig(t_final=10.0, n_traj=8, seed=1)
        stats = simulate_conditional(plant, HETERODYNE, gain, cfg, v0=V0)
        assert np.max(np.abs(stats.mean_outer)) > 1e-3


class TestUnconditionalDecomposition:
    def test_zero_gain_recovers_open_loop(self, zero_gain_run):
        Vopen = open_loop_V(NopoParams(0.25)).data
        tol = 5.0 * zero_gain_run.mean_outer_sem() + MC_FLOOR
        assert np.all(np.abs(zero_gain_run.v_unconditional - Vopen) <= tol)

    def test_unconditional_estimate_is_physical(self, zero_gain_run):
        from entlqg import CovarianceMatrix, is_physical
        V = CovarianceMatrix(zero_gain_run.v_unconditional)
        assert is_physical(V, tol=1e-6)  # Monte-Carlo tolerance

    def test_optimal_gain_recovers_conditional(self, optimal_run):
        plant, u, stats = optimal_run
        W = riccati_steady(plant, u)
        tol = 5.0 * stats.mean_outer_sem() + MC_FLOOR
        assert np.all(np.abs(stats.v_unconditional - W.data) <= tol)

    def test_scheme_gain_matches_closed_loop_lyapunov(self):
        p = NopoParams(0.25)
        from entlqg import optimize_scheme
        result = optimize_scheme(p, SchemeId.LOCAL_III)
        u, gain = scheme_realization(p, result)
        loop = closed_loop_for_scheme(p, result)
        plant = build_plant(p)
        cfg = SimConfig(dt=5e-3, t_final=40.0, n_traj=300, seed=3)
        stats = simulate_conditional(plant, u, gain, cfg, v0=riccati_steady(plant, u))
        V_pred = lyapunov_steady(loop.A_prime, loop.D_prime).data
        tol = 5.0 * stats.mean_outer_sem() + MC_FLOOR
        assert np.all(np.abs(stats.v_unconditional - V_pred) <= tol)


    def test_fewer_channels_than_modes_times_two(self):
        # one mode watched through two identical damping channels: the noise
        # has the current dimension 2L = 4, not the state dimension 2N = 2
        row = np.array([1, 1j]) / np.sqrt(2)
        plant = PlantModel(G=np.zeros((2, 2)), Ctilde=np.array([row, row]))
        u = Unravelling(np.eye(2))
        gain = FeedbackGain(0.3 * np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]]))
        loop = closed_loop(drift_matrix(plant), diffusion_matrix(plant), gain,
                           measurement_model(plant, u))
        V_pred = lyapunov_steady(loop.A_prime, loop.D_prime).data
        cfg = SimConfig(dt=5e-3, t_final=40.0, n_traj=300, seed=2)
        stats = simulate_conditional(plant, u, gain, cfg, v0=riccati_steady(plant, u))
        tol = 5.0 * stats.mean_outer_sem() + MC_FLOOR
        assert np.all(np.abs(stats.v_unconditional - V_pred) <= tol)
        assert np.max(np.abs(stats.mean_outer)) > 1e-2   # the noise drives the means


class TestMeanRegulation:
    def test_time_averaged_means_near_zero(self, optimal_run):
        _, _, stats = optimal_run
        tol = 4.0 * stats.traj_mean_sem() + MC_FLOOR
        assert np.all(np.abs(stats.traj_mean()) <= tol)

    def test_mean_outer_near_zero(self, optimal_run):
        _, _, stats = optimal_run
        tol = 4.0 * stats.mean_outer_sem() + MC_FLOOR
        assert np.all(np.abs(stats.mean_outer) <= tol)


class TestRegulationCost:
    def test_optimal_scheme_cost(self):
        p = NopoParams(0.25)
        plant = build_plant(p)
        u, gain = scheme_realization(p, optimal_nonlocal(p))
        cfg = SimConfig(dt=1e-3, t_final=20.0, n_traj=100, seed=21)
        stats = simulate_conditional(plant, u, gain, cfg, v0=riccati_steady(plant, u))
        cost = regulation_cost(stats, cost_matrix())
        tol = 3.0 * regulation_cost_sem(stats, cost_matrix()) + MC_FLOOR
        assert abs(cost - 0.5) <= tol

    def test_zero_gain_cost(self, zero_gain_run):
        cost = regulation_cost(zero_gain_run, cost_matrix())
        sem = regulation_cost_sem(zero_gain_run, cost_matrix())
        assert abs(cost - 2 / 3) <= 3.0 * sem + MC_FLOOR
        assert sem > 0

    def test_zero_cost_matrix(self, zero_gain_run):
        assert regulation_cost(zero_gain_run, np.zeros((4, 4))) == 0.0


class TestValidation:
    def test_unstable_closed_loop_rejected(self):
        plant = build_plant(NopoParams(0.25))
        from entlqg import homodyne_gain
        with pytest.raises(StabilityError):
            simulate_conditional(plant, HOMODYNE_Q, homodyne_gain(0.3, 0.0),
                                 SimConfig(dt=1e-2, t_final=2.0, n_traj=2, seed=0),
                                 v0=q_homodyne_W(0.25))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.05)  # above the step cap
        with pytest.raises(ValueError):
            SimConfig(n_traj=0)
        with pytest.raises(ValueError):
            SimConfig(t_final=1e-5, dt=1e-3)

    def test_largest_seed_runs(self):
        cfg = SimConfig(dt=1e-2, t_final=2.0, n_traj=2, seed=2**64 - 1)
        stats = simulate_conditional(build_plant(NopoParams(0.25)), HETERODYNE, ZERO_GAIN,
                                     cfg, v0=open_loop_V(NopoParams(0.25)))
        assert np.all(np.isfinite(stats.mean_outer)) and np.any(stats.mean_outer)

    def test_short_horizon_warns(self):
        plant = build_plant(NopoParams(0.25))
        with pytest.warns(UserWarning, match="slowest closed-loop time constant"):
            simulate_conditional(plant, HOMODYNE_Q, ZERO_GAIN,
                                 SimConfig(dt=1e-2, t_final=2.0, n_traj=2, seed=0),
                                 v0=q_homodyne_W(0.25))
