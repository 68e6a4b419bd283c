"""The tests' one RK4 integrator, an oracle independent of the exact Riccati flow."""


def rk4_step(rhs, V, h, k1=None):
    """One classical RK4 step of dV/dt = rhs(V); pass k1 = rhs(V) if already known."""
    if k1 is None:
        k1 = rhs(V)
    k2 = rhs(V + 0.5 * h * k1)
    k3 = rhs(V + 0.5 * h * k2)
    k4 = rhs(V + h * k3)
    return V + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
