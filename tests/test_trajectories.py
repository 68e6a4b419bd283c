import warnings

import numpy as np
import pytest

from entlqg import (CHI_MAX, HETERODYNE, HOMODYNE_Q, JOINT_HOMODYNE, CovarianceMatrix,
                    FeedbackGain, NoStableSolutionError, NopoParams, PlantModel, SchemeId,
                    SimConfig, StabilityError, TrajectoryDivergenceError, Unravelling, build_plant,
                    closed_loop, closed_loop_for_scheme, conditional_V, cost_matrix,
                    diffusion_matrix, drift_matrix, is_physical, lyapunov_steady,
                    measurement_model, open_loop_V, optimal_gain, optimal_nonlocal,
                    optimize_scheme, regulation_cost, regulation_cost_sem, riccati_steady,
                    scheme_realization, simulate_conditional)
from entlqg.nopo import homodyne_gain
from entlqg.cli import MC_FLOOR, main
from entlqg.dynamics import HURWITZ_TOL, _expm
from entlqg.trajectories import (_BLOCK, _BURN_IN, _FOLD, _FOLD_ROWS, _MAX_KEPT, _MAX_STEPS,
                                 _MAX_TRAJ, _ROWS, _chunk_rng, _psd_factor)
from entlqg.unravelling import RICCATI_REL_TOL, riccati_certificate, riccati_map
from oracles import (anti_stabilizing_solution, exact_mean_outer_se, exact_reference,
                     expm_by_eig, increment_by_eig, smith_stationary)

ZERO_GAIN = FeedbackGain(np.zeros((4, 4)))


def q_homodyne_W(chi):
    """Stationary conditional covariance under q-homodyne detection, in closed form."""
    return conditional_V(NopoParams(chi), SchemeId.NONE)


@pytest.fixture(scope="module")
def zero_gain_run():
    plant = build_plant(NopoParams(0.25))
    cfg = SimConfig(dt=5e-3, t_final=40.0, n_traj=300, seed=11)
    return simulate_conditional(plant, HOMODYNE_Q, ZERO_GAIN, cfg, v0=q_homodyne_W(0.25))


class TestDeterminism:
    def test_identical_seed_bitwise(self):
        plant = build_plant(NopoParams(0.2))
        cfg = SimConfig(dt=1e-2, t_final=5.0, n_traj=16, seed=99)
        a = simulate_conditional(plant, HOMODYNE_Q, ZERO_GAIN, cfg, v0=q_homodyne_W(0.2))
        b = simulate_conditional(plant, HOMODYNE_Q, ZERO_GAIN, cfg, v0=q_homodyne_W(0.2))
        assert np.array_equal(a.mean_outer, b.mean_outer)
        assert np.array_equal(a.outer_by_traj, b.outer_by_traj)
        assert np.array_equal(a.v_c_final.data, b.v_c_final.data)

    def test_first_chunk_of_larger_ensemble_bitwise(self):
        # each row chunk owns its noise stream, keyed on its index: 512
        # trajectories split into two chunks of 256, the first of which is
        # the whole of a 256-trajectory run, and the second draws other noise
        plant = build_plant(NopoParams(0.2))
        small, large = (simulate_conditional(plant, HOMODYNE_Q, ZERO_GAIN,
                                             SimConfig(dt=1e-2, t_final=5.0, n_traj=k,
                                                       seed=17),
                                             v0=q_homodyne_W(0.2))
                        for k in (_ROWS, 2 * _ROWS))
        assert np.array_equal(small.outer_by_traj, large.outer_by_traj[:_ROWS])
        assert not np.array_equal(large.outer_by_traj[:_ROWS], large.outer_by_traj[_ROWS:])
        # each chunk adds to its own columns of the Gram's upper triangle,
        # mirrored once into an exactly symmetric outer product
        assert np.array_equal(large.outer_by_traj, large.outer_by_traj.swapaxes(1, 2))

    def test_different_seed_differs(self):
        plant = build_plant(NopoParams(0.2))
        cfg1 = SimConfig(dt=1e-2, t_final=5.0, n_traj=16, seed=1)
        cfg2 = SimConfig(dt=1e-2, t_final=5.0, n_traj=16, seed=2)
        a = simulate_conditional(plant, HOMODYNE_Q, ZERO_GAIN, cfg1, v0=q_homodyne_W(0.2))
        b = simulate_conditional(plant, HOMODYNE_Q, ZERO_GAIN, cfg2, v0=q_homodyne_W(0.2))
        assert not np.array_equal(a.mean_outer, b.mean_outer)


class TestConditionalCovariance:
    def test_fixed_point_start_is_kept_exactly(self):
        p = NopoParams(0.25)
        plant = build_plant(p)
        W = riccati_steady(plant, HETERODYNE)
        cfg = SimConfig(dt=1e-2, t_final=3.0, n_traj=2, seed=0)
        stats = simulate_conditional(plant, HETERODYNE, ZERO_GAIN, cfg, v0=W)
        assert np.array_equal(stats.v_c_final.data, W.data)
        # the certificate carried is that of the covariance held
        meas = measurement_model(plant, HETERODYNE)
        A, D = drift_matrix(plant), diffusion_matrix(plant)
        cert = riccati_certificate(A, D, meas.C, meas.Gamma, stats.v_c_final.data)
        assert stats.certificate == cert and cert.stabilizing

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

    def test_step_size_insensitive(self):
        # the relaxation's step does not depend on dt, so halving dt does not
        # move the endpoint
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

    @pytest.mark.parametrize("u, scheme", [(HOMODYNE_Q, SchemeId.NONE),
                                           (HETERODYNE, SchemeId.HETERODYNE),
                                           (JOINT_HOMODYNE, SchemeId.NONLOCAL)],
                             ids=["homodyne-q", "heterodyne", "joint-homodyne"])
    def test_moving_start_lands_on_conditional_v(self, u, scheme):
        # from the open-loop state the relaxation meets the fixed-point rule on
        # the stabilizing solution, the closed-form W (measured <= 9.8e-12 of
        # max|W| at chi 0.45, where the flow is slowest of chi <= 0.45)
        p = NopoParams(0.45)
        plant = build_plant(p)
        cfg = SimConfig(dt=0.5, t_final=2.0, n_traj=2, seed=0)
        stats = simulate_conditional(plant, u, ZERO_GAIN, cfg, v0=open_loop_V(p))
        V = stats.v_c_final.data
        A, D = drift_matrix(plant), diffusion_matrix(plant)
        meas = measurement_model(plant, u)
        W = conditional_V(p, scheme).data
        cert = riccati_certificate(A, D, meas.C, meas.Gamma, V)
        assert stats.certificate == cert   # field for field, the landing's own
        assert cert.rel_residual <= RICCATI_REL_TOL
        assert cert.filter_gap < -HURWITZ_TOL
        assert np.max(np.abs(V - W)) <= 1e-10 * np.max(np.abs(W))

    def test_anti_stabilizing_start_rejected(self):
        # the anti-stabilizing solution meets the fixed-point rule, but it is
        # not held: the start is certified as riccati_steady's landing is
        plant = build_plant(NopoParams(0.3))
        cfg = SimConfig(dt=0.5, t_final=2.0, n_traj=2, seed=0)
        v0 = CovarianceMatrix(anti_stabilizing_solution(plant, HETERODYNE))
        with pytest.raises(NoStableSolutionError, match="not stabilizing"):
            simulate_conditional(plant, HETERODYNE, ZERO_GAIN, cfg, v0=v0)

    def test_nan_start_rejected(self, monkeypatch):
        # a NaN residual meets no stop rule: the relaxation ends at once, not
        # after its step limit, which is cut to 3 maps so that a NaN stepped on
        # would end with the other message
        monkeypatch.setattr("entlqg.unravelling.RICCATI_MAX_STEPS", 3)
        cfg = SimConfig(dt=0.5, t_final=2.0, n_traj=2, seed=0)
        v0 = CovarianceMatrix(np.full((4, 4), np.nan))
        with pytest.raises(NoStableSolutionError, match="^Riccati relaxation diverged$"):
            simulate_conditional(build_plant(NopoParams(0.3)), HETERODYNE, ZERO_GAIN, cfg, v0=v0)

    @pytest.mark.parametrize("scheme", [SchemeId.HETERODYNE, SchemeId.LOCAL_III,
                                        SchemeId.LOCAL_IV])
    def test_moving_start_is_the_held_run_on_its_fixed_point(self, scheme):
        # a start off the fixed point is relaxed to it before the means move:
        # every statistic is that of the run started where it lands
        p = NopoParams(0.3)
        plant = build_plant(p)
        u, gain = scheme_realization(p, optimize_scheme(p, scheme))
        cfg = SimConfig(dt=1e-2, t_final=6.0, n_traj=7, seed=13)
        moving = simulate_conditional(plant, u, gain, cfg, v0=open_loop_V(p))
        held = simulate_conditional(plant, u, gain, cfg, v0=moving.v_c_final)
        assert not np.array_equal(moving.v_c_final.data, open_loop_V(p).data)
        assert np.array_equal(moving.v_c_final.data, held.v_c_final.data)
        for field in ("mean_outer", "v_unconditional", "outer_by_traj"):
            assert np.array_equal(getattr(moving, field), getattr(held, field))

    def test_relaxation_is_shared_by_the_ensemble(self, monkeypatch):
        # the relaxation runs once a run, at a step of its own: its map count
        # grows neither with the number of trajectories nor with 1/dt
        p = NopoParams(0.3)
        plant = build_plant(p)
        u, gain = scheme_realization(p, optimize_scheme(p, SchemeId.HETERODYNE))
        calls = []

        def counted(V, Phi):
            calls.append(1)
            return riccati_map(V, Phi)

        monkeypatch.setattr("entlqg.unravelling.riccati_map", counted)
        counts = []
        for n_traj, dt in ((64, 1e-2), (512, 1e-2), (1000, 1e-2), (64, 1e-3), (64, 0.5)):
            calls.clear()
            cfg = SimConfig(dt=dt, t_final=2.0, n_traj=n_traj, seed=3)
            simulate_conditional(plant, u, gain, cfg, v0=open_loop_V(p))
            counts.append(len(calls))
        assert counts == [9] * 5   # measured: 9 maps


class TestMeanRecursion:
    @pytest.mark.parametrize("scheme, t_final, n_traj, groups", [
        (SchemeId.LOCAL_III, 6.0, 7, (37, 4)), (SchemeId.HETERODYNE, 6.0, 7, (37, 4)),
        (SchemeId.HETERODYNE, 12.0, 7, (75, 0)), (SchemeId.HETERODYNE, 0.1, 7, (0, 5)),
        (SchemeId.HETERODYNE, 10.1, 7, (63, 1)),
        (SchemeId.HETERODYNE, 6.0, _FOLD_ROWS + 1, (37, 4)), (None, 6.0, 7, (37, 4)),
        (SchemeId.LOCAL_IV, 6.0, 7, (37, 4))],
        ids=["False", "heterodyne", "heterodyne-three-blocks", "heterodyne-short-of-one-group",
             "heterodyne-last-group-of-one", "heterodyne-one-step-per-product",
             "zero-gain-full-rank", "local-iv-round-off-noise"])
    def test_matches_per_step_exact_reference(self, scheme, t_final, n_traj, groups):
        # 600 steps: the 300 kept steps are one full block and a partial one.
        # Over 1200 steps, the 600 kept steps are two full blocks and a partial
        # one, so one step matrix is reused across block boundaries. Over 10
        # steps, the 5 kept steps are less than one group of _FOLD, stepped by
        # a prefix of the s-step matrix alone; over 1010 steps, the 505 kept
        # steps end in 31 full groups and a group of 1. groups is (full
        # groups, steps left over) on the kept window. A chunk wider than
        # _FOLD_ROWS takes one step per product instead. The step matrix has
        # r = 1 (local-iii) and 2 (heterodyne) noise columns per step. The
        # chain steps d coordinates of the range of the means' law: 1 for
        # local-iii, 2 for heterodyne and for local-iv, whose noise
        # coefficient is round-off (max|Z| ~ 1e-16), and all 4 at zero gain
        # (scheme None: heterodyne detection, no feedback).
        p = NopoParams(0.25)
        plant = build_plant(p)
        if scheme is None:
            u, gain = HETERODYNE, ZERO_GAIN
            v0 = conditional_V(p, SchemeId.HETERODYNE)
        else:
            u, gain = scheme_realization(p, optimize_scheme(p, scheme))
            v0 = conditional_V(p, scheme)
        cfg = SimConfig(dt=1e-2, t_final=t_final, n_traj=n_traj, seed=13)
        n_steps, k_burn = cfg.n_steps, int(_BURN_IN * cfg.n_steps)
        assert n_steps % _BLOCK and k_burn % _BLOCK
        assert divmod(n_steps - k_burn, _FOLD) == groups
        stats = simulate_conditional(plant, u, gain, cfg, v0=v0)
        refs = exact_reference(plant, u, gain, cfg, v0)
        # measured: 4.0e-14 local-iii and 6.2e-15 heterodyne (1.1e-14 over
        # 1200 steps, 1.2e-14 over 10, 9.8e-15 over 1010, 1.1e-14 one step per
        # product), 5.4e-14 at zero gain and 7.1e-14 local-iv, the simulator's
        # own round-off (the reference moves by 5e-14 from 8 to 32 RK4 substeps)
        for got, ref in zip((stats.outer_by_traj, stats.v_c_final.data), refs):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        # the Gram's upper triangle is mirrored, not summed twice
        assert np.array_equal(stats.outer_by_traj, stats.outer_by_traj.swapaxes(1, 2))

    def test_local_i_slowest_chain_matches_exact_reference(self):
        # local-i's optimum sits on its window edge (chi >= 0.2), so its chain
        # is the slowest one (rate ~ -2e-6). At dt 0.1 the oracle's Smith
        # doubling holds: measured 5.5e-11 (8.8e-11 at dt 0.5, 5.1e-11 at chi
        # 0.45). At dt 1e-2 the two increments' round-off reorders _psd_factor's
        # pivots, so the same law maps the draws to other paths (9.6e-4).
        p = NopoParams(0.25)
        result = optimize_scheme(p, SchemeId.LOCAL_I)
        assert result.at_boundary
        plant, (u, gain) = build_plant(p), scheme_realization(p, result)
        cfg = SimConfig(dt=0.1, t_final=6.0, n_traj=7, seed=13)
        v0 = conditional_V(p, SchemeId.LOCAL_I)
        stats = simulate_conditional(plant, u, gain, cfg, v0=v0)
        outer, V = exact_reference(plant, u, gain, cfg, v0)
        assert np.max(np.abs(stats.outer_by_traj - outer)) <= 1e-9 * np.max(np.abs(outer))
        assert np.array_equal(stats.v_c_final.data, V)

    @pytest.mark.parametrize("scheme, moving, rank", [
        (None, False, 4), (None, True, 4),
        (SchemeId.HETERODYNE, False, 2), (SchemeId.LOCAL_III, False, 1)])
    def test_only_the_kept_window_draws(self, monkeypatch, scheme, moving, rank):
        # from the fixed point or relaxed to it, the means draw their start at
        # the end of the burn-in and then, a trajectory, one normal for each
        # kept step and each row of its noise factor, nothing before: the rank
        # of the increment, 2N at zero gain but 2 for heterodyne and 1 for
        # local-iii at their optimal gains
        drawn = []

        class Counting:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, size):
                drawn.append(np.prod(size))
                return self.rng.standard_normal(size)

        monkeypatch.setattr("entlqg.trajectories._chunk_rng",
                            lambda seed, chunk: Counting(_chunk_rng(seed, chunk)))
        p = NopoParams(0.25)
        cfg = SimConfig(dt=1e-2, t_final=6.0, n_traj=300, seed=2)
        if scheme is None:
            u, gain, W = HETERODYNE, ZERO_GAIN, conditional_V(p, SchemeId.HETERODYNE)
        else:
            u, gain = scheme_realization(p, optimize_scheme(p, scheme))
            W = conditional_V(p, scheme)
        v0 = open_loop_V(p) if moving else W
        stats = simulate_conditional(build_plant(p), u, gain, cfg, v0=v0)
        assert np.array_equal(stats.v_c_final.data, v0.data) != moving
        k_burn = int(_BURN_IN * cfg.n_steps)
        assert sum(drawn) == (cfg.n_steps - k_burn + 1) * cfg.n_traj * rank

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

        def no_draw(seed, chunk):
            raise AssertionError("noise drawn for K = 0")

        monkeypatch.setattr("entlqg.trajectories._chunk_rng", no_draw)
        silent = simulate_conditional(plant, u, gain, cfg, v0=result.V)
        assert np.all(silent.mean_outer == 0)
        assert np.all(silent.outer_by_traj == 0)
        assert np.array_equal(silent.v_c_final.data, result.V.data)
        assert np.max(np.abs(drawn.mean_outer)) > 0
        assert np.max(np.abs(drawn.mean_outer - silent.mean_outer)) <= 1e-20

    def test_zero_noise_coefficient_off_the_fixed_point_draws(self):
        # K is zero only at the start: the covariance relaxes to its fixed
        # point, where it is not, so the draw cannot be skipped
        p = NopoParams(0.25)
        plant = build_plant(p)
        V0 = open_loop_V(p)
        meas = measurement_model(plant, HETERODYNE)
        gain = optimal_gain(V0, meas)
        assert not np.any(V0.data @ meas.C.T + meas.Gamma.T + gain.BF)
        cfg = SimConfig(t_final=10.0, n_traj=8, seed=1)
        stats = simulate_conditional(plant, HETERODYNE, gain, cfg, v0=V0)
        assert np.max(np.abs(stats.mean_outer)) > 1e-3


class TestExactHeldChain:
    @pytest.mark.parametrize("chi", [0.05, 0.3, 0.45, 0.4999, CHI_MAX])
    @pytest.mark.parametrize("scheme", [SchemeId.HETERODYNE, SchemeId.LOCAL_III,
                                        SchemeId.LOCAL_IV])
    def test_stationary_law_is_kept_and_is_v_pred_minus_w(self, scheme, chi):
        # Z = lyapunov_steady(A_cl, K K^T) is the held chain's stationary
        # law at every step, and the means' share of the unconditional state
        p = NopoParams(chi)
        plant = build_plant(p)
        u, gain = scheme_realization(p, optimize_scheme(p, scheme))
        meas = measurement_model(plant, u)
        A, D = drift_matrix(plant), diffusion_matrix(plant)
        A_cl = A + gain.BF @ meas.C
        W = conditional_V(p, scheme).data
        K = W @ meas.C.T + meas.Gamma.T + gain.BF
        Z = lyapunov_steady(A_cl, K @ K.T).data
        loop = closed_loop(A, D, gain, meas)
        V_pred = lyapunov_steady(loop.A_prime, loop.D_prime).data
        scale = max(1.0, np.max(np.abs(W)))
        # the two Lyapunov solves lose digits as 1 / (1 - 2 chi)
        assert np.max(np.abs(Z - (V_pred - W))) <= 1e-15 * scale / (1 - 2 * chi)
        # Z is the stationary law of the exact chain built by eigendecomposition,
        # Z = Phi Z Phi^T + Q with Q the increment integral; the bound lets
        # rounding grow as dt |A_cl|_1 (measured <= 5.1e-16 where it allows
        # 1e-14). The simulator's increment Z - Phi Z Phi^T, Phi = _expm(A_cl dt),
        # matches the integral to rounding on Z: measured <= 9.7e-13 max|Z|
        # (local-iv, chi 0.4999, dt 1e3), so it stays accurate relative to its
        # own size where K is only round-off (local-iv, max|Z| ~ 1e-16).
        for dt in (1e-3, 0.1, 0.5, 1e3):
            Phi, Q = expm_by_eig(dt * A_cl), increment_by_eig(A_cl, K, dt)
            growth = max(1.0, dt * np.abs(A_cl).sum(axis=0).max())
            assert np.max(np.abs(Phi @ Z @ Phi.T + Q - Z)) <= 1e-14 * scale * growth
            Phi = _expm(dt * A_cl)
            assert np.max(np.abs(Z - Phi @ Z @ Phi.T - Q)) <= 1e-11 * np.max(np.abs(Z))

    @pytest.mark.parametrize("chi", [0.05, 0.3, 0.45, 0.4999, CHI_MAX])
    @pytest.mark.parametrize("scheme", [SchemeId.HETERODYNE, SchemeId.LOCAL_III,
                                        SchemeId.LOCAL_IV])
    def test_increment_factor_has_its_rank(self, scheme, chi):
        # The held step draws one normal per row of _psd_factor(Q), Q = Z -
        # Phi Z Phi^T: as many rows as the increment integral has eigenvalues
        # above the relative 1e-12 clip. One within a decade of the clip may
        # fall on either side: heterodyne at chi 0.05 has two at 2.1e-13 and
        # local-iii at CHI_MAX one at 1.00007e-12, both left out. The
        # dropped directions are below the clip, so F^T F misses Q by less
        # than 1e-12 max|Q| (measured <= 8.3e-13, heterodyne at chi 0.05).
        p = NopoParams(chi)
        plant = build_plant(p)
        u, gain = scheme_realization(p, optimize_scheme(p, scheme))
        meas = measurement_model(plant, u)
        A_cl = drift_matrix(plant) + gain.BF @ meas.C
        K = conditional_V(p, scheme).data @ meas.C.T + meas.Gamma.T + gain.BF
        Z = lyapunov_steady(A_cl, K @ K.T).data
        for dt in (1e-3, 0.5):
            Phi = _expm(dt * A_cl)
            Q = Z - Phi @ Z @ Phi.T
            F = _psd_factor(Q)
            w = np.linalg.eigvalsh(increment_by_eig(A_cl, K, dt))
            assert np.sum(w > 1e-11 * w.max()) <= len(F) <= np.sum(w > 1e-13 * w.max())
            assert np.max(np.abs(F.T @ F - Q)) <= 1e-12 * np.max(np.abs(Q))
            if scheme is SchemeId.HETERODYNE:
                # Q has a doubly degenerate eigenvalue, in whose eigenspace an
                # eigh factor turns freely (by 2.0 of max|F| at chi 0.45, dt
                # 0.5); the pivoted factor scales with Q, as sqrt(1 + 1e-14)
                F_up = _psd_factor(Q * (1 + 1e-14))
                assert np.max(np.abs(F_up - F)) <= 1e-13 * np.max(np.abs(F))

    @pytest.mark.parametrize("chi", [0.05, 0.3, 0.45, 0.4999])
    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_means_stay_in_the_range_of_their_law(self, scheme, chi):
        # The simulator steps the means in a basis B of range(Z), which holds
        # them only if A_cl maps it into itself and the increment Q lies in
        # it; at the optimal gain of every scheme it has rank <= 2, half the
        # phase space. Z, Q and B here come from the eigendecomposition
        # oracles alone; B spans Z's eigenvalues above the relative 1e-12 clip
        # of _psd_factor. Both parts outside the range are below 1e-12 of
        # max|A_cl| and max|Q| (measured <= 2.3e-15, local-ii at chi 0.45,
        # and <= 1.4e-13, local-iii at chi 0.3, both at dt 1e-3), except
        # local-i at its window edge (chi >= 0.3 here), where the slowest
        # closed-loop rate is -2e-6 and the Smith law misses lyapunov_steady
        # by up to 1e-7 of max|Z| (dt 1e-3): below 1e-10 there (measured
        # <= 4.5e-11 and <= 2.9e-11).
        p = NopoParams(chi)
        plant = build_plant(p)
        u, gain = scheme_realization(p, optimize_scheme(p, scheme))
        meas = measurement_model(plant, u)
        A_cl = drift_matrix(plant) + gain.BF @ meas.C
        K = conditional_V(p, scheme).data @ meas.C.T + meas.Gamma.T + gain.BF
        tol = 1e-10 if scheme is SchemeId.LOCAL_I else 1e-12
        for dt in (1e-3, 0.5):
            Q = increment_by_eig(A_cl, K, dt)
            w, E = np.linalg.eigh(smith_stationary(expm_by_eig(dt * A_cl), Q))
            B = E[:, w > 1e-12 * w.max()]
            assert B.shape[1] <= 2
            out = np.eye(len(B)) - B @ B.T
            assert np.max(np.abs(out @ A_cl @ B), initial=0) <= tol * np.max(np.abs(A_cl))
            assert np.max(np.abs(out @ Q)) <= tol * np.max(np.abs(Q))

    @pytest.mark.parametrize("dt", [0.5, 1e-2])
    def test_held_heterodyne_run_matches_v_pred(self, dt):
        # exact at a coarse step as at a fine one: no bias to budget for
        p = NopoParams(0.3)
        plant = build_plant(p)
        u, gain = scheme_realization(p, optimize_scheme(p, SchemeId.HETERODYNE))
        loop = closed_loop(drift_matrix(plant), diffusion_matrix(plant), gain,
                           measurement_model(plant, u))
        V_pred = lyapunov_steady(loop.A_prime, loop.D_prime).data
        cfg = SimConfig(dt=dt, t_final=20.0, n_traj=400, seed=31)
        stats = simulate_conditional(plant, u, gain, cfg,
                                     v0=conditional_V(p, SchemeId.HETERODYNE))
        tol = 5.0 * stats.mean_outer_sem() + MC_FLOOR
        assert np.all(np.abs(stats.v_unconditional - V_pred) <= tol)
        assert np.max(np.abs(stats.mean_outer)) > 1e-3   # the noise drives the means


class TestExactStandardError:
    @pytest.mark.parametrize("chi", [0.05, 0.3, 0.45, 0.4999])
    @pytest.mark.parametrize("scheme", [SchemeId.HETERODYNE, SchemeId.LOCAL_III,
                                        SchemeId.LOCAL_IV])
    def test_verify_default_step_keeps_the_standard_error(self, scheme, chi):
        # The held chain is exact at any dt, which only sets how finely the
        # kept window is sampled: at verify's default step the exact SE is
        # that of dt = 0.1, and the simulator's estimate matches it. The
        # estimate of the largest entry's SE spreads as 1/sqrt(n_traj) and
        # is biased upward by the max; at 4000 trajectories it stays within
        # 10 % on every seed in 0-39 (at 1000, 8 of them failed).
        n_traj = 4000
        defaults = {o.name: o.default for o in main.commands["verify"].params}
        dt, horizon = defaults["dt"], defaults["horizon"]
        p = NopoParams(chi)
        plant = build_plant(p)
        u, gain = scheme_realization(p, optimize_scheme(p, scheme))
        meas = measurement_model(plant, u)
        A_cl = drift_matrix(plant) + gain.BF @ meas.C
        W = conditional_V(p, scheme)
        K = W.data @ meas.C.T + meas.Gamma.T + gain.BF
        exact = exact_mean_outer_se(A_cl, K, dt, horizon, n_traj).max()
        fine = exact_mean_outer_se(A_cl, K, 0.1, horizon, n_traj).max()
        assert abs(exact / fine - 1) <= 0.02
        cfg = SimConfig(dt=dt, t_final=horizon, n_traj=n_traj, seed=7)
        stats = simulate_conditional(plant, u, gain, cfg, v0=W)
        assert abs(stats.mean_outer_sem().max() / exact - 1) <= 0.1


class TestUnconditionalDecomposition:
    def test_zero_gain_recovers_open_loop(self, zero_gain_run):
        Vopen = open_loop_V(NopoParams(0.25)).data
        tol = 5.0 * zero_gain_run.mean_outer_sem() + MC_FLOOR
        assert np.all(np.abs(zero_gain_run.v_unconditional - Vopen) <= tol)

    def test_unconditional_estimate_is_physical(self, zero_gain_run):
        V = CovarianceMatrix(zero_gain_run.v_unconditional)
        assert is_physical(V, tol=1e-6)  # Monte-Carlo tolerance

    def test_scheme_gain_matches_closed_loop_lyapunov(self):
        p = NopoParams(0.25)
        result = optimize_scheme(p, SchemeId.LOCAL_III)
        u, gain = scheme_realization(p, result)
        loop = closed_loop_for_scheme(p, result)
        plant = build_plant(p)
        cfg = SimConfig(dt=5e-3, t_final=40.0, n_traj=300, seed=3)
        stats = simulate_conditional(plant, u, gain, cfg, v0=conditional_V(p, result.scheme))
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


class TestRegulationCost:
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
        with pytest.raises(StabilityError):
            simulate_conditional(plant, HOMODYNE_Q, homodyne_gain(0.3, 0.0),
                                 SimConfig(dt=1e-2, t_final=2.0, n_traj=2, seed=0),
                                 v0=q_homodyne_W(0.25))

    def test_config_validation(self):
        # the held chain is exact at any step
        p = NopoParams(0.25)
        plant = build_plant(p)
        stats = simulate_conditional(plant, HETERODYNE, ZERO_GAIN,
                                     SimConfig(dt=0.5, t_final=2.0, n_traj=2, seed=0),
                                     v0=conditional_V(p, SchemeId.HETERODYNE))
        assert np.all(np.isfinite(stats.mean_outer)) and np.any(stats.mean_outer)
        with pytest.raises(ValueError):
            SimConfig(dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(n_traj=0)
        with pytest.raises(ValueError):
            SimConfig(t_final=1e-5, dt=1e-3)
        with pytest.raises(ValueError, match="finite"):   # t_final / dt overflows
            SimConfig(dt=1e-300, t_final=1e300)
        # a step count a float holds can still run for years: capped
        assert SimConfig(dt=1.0, t_final=float(_MAX_STEPS)).n_steps == _MAX_STEPS
        for t_final in (_MAX_STEPS + 1.0, 1e12):
            with pytest.raises(ValueError, match=f"at most {_MAX_STEPS} steps"):
                SimConfig(dt=1.0, t_final=t_final)
        # so can an ensemble too large to hold: capped
        assert SimConfig(n_traj=_MAX_TRAJ).n_traj == _MAX_TRAJ
        for n_traj in (_MAX_TRAJ + 1, 10**30):
            with pytest.raises(ValueError, match=f"at most {_MAX_TRAJ} trajectories"):
                SimConfig(n_traj=n_traj)
        # and so can a run within both caps: the kept work n_traj x (n_steps -
        # k_burn) is capped too, and the longest horizon keeps 5e7 steps
        assert SimConfig(dt=1.0, t_final=float(_MAX_STEPS), n_traj=2000).n_traj == 2000
        with pytest.raises(ValueError, match=f"at most {_MAX_KEPT} trajectory-steps"):
            SimConfig(dt=1.0, t_final=float(_MAX_STEPS), n_traj=2001)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                SimConfig(t_final=bad)
            with pytest.raises(ValueError, match="finite"):
                SimConfig(dt=bad)
        # a float or a bool would stop the simulator inside NumPy
        for bad in ({"n_traj": 3.5}, {"n_traj": True}, {"seed": 1.5}, {"seed": np.True_}):
            with pytest.raises(ValueError, match="must be an integer"):
                SimConfig(**bad)
        cfg = SimConfig(n_traj=np.int64(2), seed=np.uint64(2**64 - 1))
        assert type(cfg.n_traj) is int and type(cfg.seed) is int

    def test_seed_outside_64_bits_rejected(self):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed must fit in 64 bits"):
                SimConfig(seed=seed)

    def test_one_trajectory_has_no_standard_error(self):
        # an SE of exactly zero would collapse every k-SE check to its floor
        p = NopoParams(0.25)
        stats = simulate_conditional(build_plant(p), HETERODYNE, ZERO_GAIN,
                                     SimConfig(dt=0.5, t_final=2.0, n_traj=1, seed=0),
                                     v0=conditional_V(p, SchemeId.HETERODYNE))
        assert np.any(stats.mean_outer)
        for sem in (stats.mean_outer_sem, lambda: regulation_cost_sem(stats, cost_matrix())):
            with pytest.raises(ValueError, match="at least two trajectories"):
                sem()

    def test_largest_seed_runs(self):
        cfg = SimConfig(dt=1e-2, t_final=2.0, n_traj=2, seed=2**64 - 1)
        stats = simulate_conditional(build_plant(NopoParams(0.25)), HETERODYNE, ZERO_GAIN,
                                     cfg, v0=open_loop_V(NopoParams(0.25)))
        assert np.all(np.isfinite(stats.mean_outer)) and np.any(stats.mean_outer)

    def test_divergence_named_on_the_full_horizon_grid(self, monkeypatch):
        # a held start steps only the kept window, from step 300 of 600, but
        # the error names the step where the first block ends on the full grid
        monkeypatch.setattr("entlqg.trajectories._DIVERGENCE_LIMIT", 1e-6)
        p = NopoParams(0.25)
        plant = build_plant(p)
        cfg = SimConfig(dt=1e-2, t_final=6.0, n_traj=3, seed=0)
        with pytest.raises(TrajectoryDivergenceError, match=f"by step {300 + _BLOCK}$"):
            simulate_conditional(plant, HETERODYNE, ZERO_GAIN, cfg,
                                 v0=conditional_V(p, SchemeId.HETERODYNE))

    @pytest.mark.parametrize("moving", [False, True])
    def test_short_horizon_is_silent(self, moving):
        # the means begin in their stationary law, from the fixed point or
        # relaxed to it: no warning either way
        p = NopoParams(0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate_conditional(build_plant(p), HOMODYNE_Q, ZERO_GAIN,
                                 SimConfig(dt=1e-2, t_final=2.0, n_traj=2, seed=0),
                                 v0=open_loop_V(p) if moving else q_homodyne_W(0.25))
