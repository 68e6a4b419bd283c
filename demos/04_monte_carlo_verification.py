"""Monte-Carlo cross-check of the steady-state theory.

Simulates the conditional moments trajectory by trajectory: the conditional
covariance is held on the stationary solution of its Riccati equation while
the conditional means diffuse under the measurement noise and feedback,
stepped by their exact increment, so the coarse step dt = 0.1 carries no
bias. In steady state the unconditional covariance must decompose as the
conditional covariance plus the ensemble second moment of the means, and
under the optimal gain the means are regulated to zero so the two coincide.
"""

import numpy as np

from entlqg import (HOMODYNE_Q, FeedbackGain, NopoParams, SchemeId, SimConfig,
                    build_plant, conditional_V, cost_matrix, open_loop_V,
                    optimal_nonlocal, regulation_cost, regulation_cost_sem,
                    scheme_realization, simulate_conditional)

np.set_printoptions(precision=6, suppress=True)

# %% Optimal scheme: means regulated to zero -----------------------------------
chi = 0.3
p = NopoParams(chi)
plant = build_plant(p)
result = optimal_nonlocal(p)
u, gain = scheme_realization(p, result)
W = conditional_V(p, SchemeId.NONLOCAL)

cfg = SimConfig(dt=0.1, t_final=20.0, n_traj=500, seed=7)
print(f"simulating {cfg.n_traj} trajectories at chi = {chi} "
      f"(dt = {cfg.dt}, horizon = {cfg.t_final}) ...")
stats = simulate_conditional(plant, u, gain, cfg, v0=W)

print(f"|Vc(T) - W|_inf                  = "
      f"{np.max(np.abs(stats.v_c_final.data - W.data)):.2e}")
print(f"max |time-averaged <x><x>^T|     = "
      f"{np.max(np.abs(stats.mean_outer)):.2e}")
cost = regulation_cost(stats, cost_matrix())
print(f"regulation cost                  = {cost:.12f}")
print(f"steady-state optimum tr[P W]     = "
      f"{np.trace(cost_matrix() @ W.data):.12f}")
print(f"closed form 1 - 2 chi            = {1 - 2 * chi}")

# %% No feedback: the decomposition carries all the spread ---------------------
print("\nzero-gain control run at chi = 0.25 (conditioning without feedback):")
p = NopoParams(0.25)
plant = build_plant(p)
cfg = SimConfig(dt=0.1, t_final=40.0, n_traj=400, seed=11)
stats = simulate_conditional(plant, HOMODYNE_Q, FeedbackGain(np.zeros((4, 4))), cfg,
                             v0=conditional_V(p, SchemeId.NONE))

V_open = open_loop_V(p).data
diff = np.abs(stats.v_unconditional - V_open)
sem = stats.mean_outer_sem()
print("Vc(T) + E[<x><x>^T]  vs  open-loop V: entrywise |difference| / SE")
with np.errstate(divide="ignore", invalid="ignore"):
    ratio = np.where(sem > 0, diff / sem, 0.0)
print(np.round(ratio, 2))
print("every entry sits within a few standard errors: the conditional")
print("covariance plus the mean spread reconstructs the unconditional state.")

cost = regulation_cost(stats, cost_matrix())
sem_c = regulation_cost_sem(stats, cost_matrix())
print(f"\nunregulated cost = {cost:.4f} +- {sem_c:.4f} "
      f"(stationary value 2/3 = {2 / 3:.4f})")
