"""State Jacobian at the operating point and its spectral abscissa.

jacobian is the linear part of the swing equations (dynamics.swing_matrix,
[[0, I], [control, damping]]) with the network coupling added to its
lower-left block.  All blocks are exact partial derivatives of the
implemented swing right-hand side, so finite differences of the dynamics must
reproduce them entry for entry.  Stability is judged by alpha_max, the
largest real part over the spectrum without the structural zero mode that
comes from uniform-angle-shift invariance; the mode is removed exactly by
writing angles relative to the last machine.  alpha_for_links is the one
function that computes alpha_max.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from gridlink.dynamics import ControlConfig, control_matrix, swing_matrix
from gridlink.model import SystemModel
from gridlink.reduction import ReducedNetwork, coupling_coefficients


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray  # (2n,) complex, sorted by descending real part
    alpha_max: float  # max real part over the retained spectrum, 1/s
    deflated: bool  # always True: the structural zero mode is removed
    deflated_magnitude: float  # smallest |lambda| of the full spectrum


def coupling_matrix(net: ReducedNetwork, delta_s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Angle-coupling block: d(d omega_i/dt)/d delta_k of the uncontrolled dynamics.

    Off-diagonal (c cos - d sin)/m_i at the equilibrium angle differences,
    with c and d taken from y_g and e_mag by coupling_coefficients, the
    network the right-hand side reads; the diagonal is minus the row sum, so
    rows annihilate the all-ones vector exactly.
    """
    delta_s = np.asarray(delta_s, dtype=float)
    m = np.asarray(m, dtype=float)
    c, d = coupling_coefficients(net.y_g, net.e_mag)
    dd = delta_s[:, None] - delta_s[None, :]
    t = (c * np.cos(dd) - d * np.sin(dd)) / m[:, None]
    np.fill_diagonal(t, 0.0)
    np.fill_diagonal(t, -t.sum(axis=1))
    return t


def jacobian(model: SystemModel, ctl: ControlConfig) -> np.ndarray:
    """The full (2n, 2n) Jacobian [[0, I], [control + coupling, damping]] for ``ctl``."""
    j = swing_matrix(model, ctl)
    n = model.n
    j[n:, :n] += coupling_matrix(model.net, model.op.delta_s, model.m)
    return j


# uncontrolled_jacobian's matrices, one per model object; an entry dies with its model.
_UNCONTROLLED: weakref.WeakKeyDictionary[SystemModel, np.ndarray] = weakref.WeakKeyDictionary()


def uncontrolled_jacobian(model: SystemModel) -> np.ndarray:
    """relative_angle_jacobian without links, read-only, computed once per model object."""
    j = _UNCONTROLLED.get(model)
    if j is None:
        n = model.n
        full = jacobian(model, ControlConfig())
        keep = np.r_[: n - 1, n : 2 * n]  # drop delta_n; d(delta_i - delta_n)/dt subtracts its row
        j = full[np.ix_(keep, keep)]
        j[: n - 1] -= full[n - 1, keep]
        j.flags.writeable = False
        _UNCONTROLLED[model] = j
    return j


def relative_angle_jacobian(model: SystemModel, links, gain: float) -> np.ndarray:
    """(2n-1)x(2n-1) Jacobian over angles relative to the last machine and all speeds.

    The lower-left block coupling + control annihilates the all-ones vector,
    so d(delta_i - delta_n)/dt = omega_i - omega_n and the block only sees
    the relative angles.  This is the projection deviation_norms uses, and
    its spectrum is exactly that of the full Jacobian with the structural
    zero mode removed.  Only the control block depends on the links, so
    uncontrolled_jacobian(model) is copied and the control block added to
    its lower-left block, rows n-1.. and columns ..n-1.  Raises ValueError
    when L_h / m or the result has a non-finite entry (an overflowing gain):
    L_h / m is checked whole because the last machine's diagonal, which the
    result leaves out, can overflow alone.
    """
    n = model.n
    control = control_matrix(ControlConfig(links, gain), model.m)
    j = uncontrolled_jacobian(model).copy()
    j[n - 1 :, : n - 1] += control[:, : n - 1]
    if not (np.isfinite(control).all() and np.isfinite(j).all()):
        raise ValueError("Jacobian has non-finite entries")
    return j


def alpha_for_links(model: SystemModel, links, gain: float) -> float:
    """alpha_max of the system with the given link set at one common gain.

    The spectral abscissa of relative_angle_jacobian, one eigvals, so the
    structural zero mode never enters.  Every alpha_max gridlink reports
    comes from here.  Raises ValueError for an overflowing gain.
    """
    return float(np.max(np.linalg.eigvals(relative_angle_jacobian(model, links, gain)).real))


def spectral_abscissa(model: SystemModel, ctl: ControlConfig) -> SpectrumReport:
    """The full spectrum of ``model`` under ``ctl`` and alpha_max without the zero mode.

    alpha_max is alpha_for_links for the control's links and gain, which
    raises ValueError for an overflowing gain.  The eigenvalues are those of
    the full Jacobian, listed whole and sorted by descending real part;
    deflated_magnitude is their smallest |lambda|.
    """
    alpha = alpha_for_links(model, ctl.links, ctl.gain)
    eigvals = np.linalg.eigvals(jacobian(model, ctl))
    eigvals = eigvals[np.lexsort((-eigvals.imag, -eigvals.real))]
    return SpectrumReport(
        eigenvalues=eigvals,
        alpha_max=alpha,
        deflated=True,
        deflated_magnitude=float(np.min(np.abs(eigvals))),
    )
