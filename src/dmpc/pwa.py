"""Exact one-step plant update for piecewise-affine systems.

A PWA system is a set of affine regimes

    x_{t+1} = A_i x_t + B_i u_t + E_i d_t
    y_t     = C_i x_t + F_i w_t

The closed-loop harness steps the true plant with
:func:`simulate_pwa_step`; the MPC model itself is built directly by
:mod:`.thermostat`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PwaRegime", "PwaSystem", "simulate_pwa_step"]


@dataclass(frozen=True)
class PwaRegime:
    """One affine regime."""

    name: str
    A: np.ndarray
    B: np.ndarray
    E: np.ndarray
    C: np.ndarray
    F: np.ndarray


@dataclass(frozen=True)
class PwaSystem:
    regimes: tuple

    @property
    def n(self) -> int:
        return int(np.asarray(self.regimes[0].A).shape[0])

    @property
    def m(self) -> int:
        return int(np.asarray(self.regimes[0].B).shape[1])


def simulate_pwa_step(system: PwaSystem, x, u, d=None, regime: int = 0,
                      noise=None) -> tuple:
    """Exact one-step update of the true PWA plant under one regime.

    Returns ``(x_next, y)`` with ``y`` evaluated at the current state;
    the output noise term is zero unless ``noise`` is given.
    """
    if not (0 <= regime < len(system.regimes)):
        raise ValueError("regime index out of range")
    rg = system.regimes[regime]
    x = np.asarray(x, dtype=float).reshape(-1)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    n, m = system.n, system.m
    if x.size != n or u.size != m:
        raise ValueError("state or input has wrong dimension")
    A = np.asarray(rg.A, dtype=float)
    B = np.asarray(rg.B, dtype=float)
    E = np.asarray(rg.E, dtype=float)
    C = np.asarray(rg.C, dtype=float)
    F = np.asarray(rg.F, dtype=float)
    if d is None:
        d = np.zeros(E.shape[1])
    else:
        d = np.asarray(d, dtype=float).reshape(-1)
        if d.size != E.shape[1]:
            raise ValueError("disturbance has wrong dimension")
    x_next = A @ x + B @ u + E @ d
    y = C @ x
    if noise is not None:
        w = np.asarray(noise, dtype=float).reshape(-1)
        if w.size != F.shape[1]:
            raise ValueError("noise has wrong dimension")
        y = y + F @ w
    return x_next, y
