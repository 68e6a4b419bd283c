"""The globally optimal measurement and feedback scheme.

Minimizing the joint EPR cost over attainable conditional covariances gives
a closed-form optimum. This script checks that the optimum sits on the edge
of the attainable set (the two matrix-inequality margins), recovers the
measurement (unravelling) that generates it, interprets the measured
quadrature combinations and solves the conditional Riccati equation for it.
"""

import numpy as np

from entlqg import (NopoParams, SchemeId, build_plant, closed_loop,
                    diffusion_matrix, drift_matrix, lmi_feasible, lyapunov_steady,
                    measurement_model, optimal_gain, optimize_scheme,
                    recover_unravelling, riccati_steady, symplectic_eigenvalues,
                    u_matrix)

np.set_printoptions(precision=6, suppress=True)

chi = 0.25
p = NopoParams(chi)
plant = build_plant(p)

# %% Closed-form optimum and its matrix-inequality margins --------------------
result = optimize_scheme(p, SchemeId.NONLOCAL)
alpha, beta = result.params["alpha"], result.params["beta"]
print(f"chi = {chi}: optimal conditional covariance has alpha = {alpha}, "
      f"beta = {beta}")
print(f"cost m = {result.m} (vacuum level 1), L = {result.L:.6f} bits, "
      f"S = {result.S:.2e} bits")

lmi = lmi_feasible(result.V, plant)
print(f"attainable: {lmi.feasible}; margins: physical {lmi.physical_margin:.2e}, "
      f"dissipation {lmi.dissipation_margin:.2e}")
print("both margins vanish: the optimum lies on the boundary of the attainable set")

# %% The measurement that achieves it ----------------------------------------
u, residual = recover_unravelling(result.V, plant)
meas = measurement_model(plant, u)
print("\nrecovered unravelling matrix U (a projector):")
print(u_matrix(u))
print(f"recovery residual = {residual:.2e}")
print("\nmeasurement matrix C:")
print(meas.C)
print("rows 1-2 sense q1 - q2, rows 3-4 sense p1 + p2: the two output beams")
print("must interfere on a beam splitter before homodyne detection.")

# %% Riccati solution and the Markovian gain ----------------------------------
W = riccati_steady(plant, u)
print(f"\nRiccati steady state matches the closed form to "
      f"{np.max(np.abs(W.data - result.V.data)):.2e}")
print(f"symplectic spectrum of W: {symplectic_eigenvalues(W)} "
      "(pure state)")

gain = optimal_gain(W, meas)
loop = closed_loop(drift_matrix(plant), diffusion_matrix(plant), gain, meas)
V_unconditional = lyapunov_steady(loop.A_prime, loop.D_prime)
print(f"\ncurrent gain BF:\n{gain.BF}")
print(f"with this gain the unconditional stationary covariance equals W "
      f"(deviation {np.max(np.abs(V_unconditional.data - W.data)):.2e}):")
print("feedback converts conditional squeezing into real, unconditional "
      "entanglement.")
