"""The closed loop's plant step.

The plant is the one affine regime ``x' = A x + B u`` of a
:class:`~.thermostat.BuildingModel`; its switching lives in the relay,
which the MPC models as disjunctions.
"""

from __future__ import annotations

__all__ = ["simulate_pwa_step"]


# perfbench times the plant by patching simulate_pwa_step in this module,
# so the name and the module stay until its patch list drops them
def simulate_pwa_step(building, x, u: float):
    """The building's state one period after ``x`` under heat input ``u``."""
    return building.A @ x + building.B * u
