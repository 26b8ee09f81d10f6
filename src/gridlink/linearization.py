"""State Jacobian at the operating point and its spectral abscissa.

jacobian builds [[0, I], [coupling + control, damping]] over
(d delta, d omega) from a model and a control.  All blocks are exact partial
derivatives of the implemented swing right-hand side, so finite differences
of the dynamics must reproduce them entry for entry.  Stability is judged by
alpha_max, the largest real part over the spectrum without the structural
zero mode that comes from uniform-angle-shift invariance; the mode is
removed exactly by writing angles relative to the last machine.
alpha_for_links is the one function that computes alpha_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gridlink.dynamics import ControlConfig, link_laplacian, uniform_control
from gridlink.model import SystemModel
from gridlink.reduction import ReducedNetwork


@dataclass(frozen=True)
class ConstantBlocks:
    coupling: np.ndarray  # (n, n) network block, 1/s^2
    damping: np.ndarray  # (n, n) diagonal -d_i/m_i, 1/s
    template: np.ndarray  # (2n-1, 2n-1) relative-angle Jacobian with a zero lower-left block


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray  # (2n,) complex, sorted by descending real part
    alpha_max: float  # max real part over the retained spectrum, 1/s
    deflated: bool  # always True: the structural zero mode is removed
    deflated_magnitude: float  # smallest |lambda| of the full spectrum


def coupling_matrix(net: ReducedNetwork, delta_s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Angle-coupling block: d(d omega_i/dt)/d delta_k of the uncontrolled dynamics.

    Off-diagonal (c cos - d sin)/m_i at the equilibrium angle differences;
    the diagonal is minus the row sum, so rows annihilate the all-ones vector
    exactly.
    """
    delta_s = np.asarray(delta_s, dtype=float)
    m = np.asarray(m, dtype=float)
    dd = delta_s[:, None] - delta_s[None, :]
    t = (net.c * np.cos(dd) - net.d * np.sin(dd)) / m[:, None]
    np.fill_diagonal(t, 0.0)
    np.fill_diagonal(t, -t.sum(axis=1))
    return t


def control_matrix(ctl: ControlConfig, m: np.ndarray) -> np.ndarray:
    """Link-feedback block L_h / m_i: -h_ik/m_i off-diagonal, row-sum-zero diagonal.

    With a negative gain this is a weighted Laplacian scaled by 1/m_i:
    negative diagonal, positive off-diagonals.  An overflowing gain gives
    infinite entries, which spectral evaluation rejects.
    """
    m = np.asarray(m, dtype=float)
    with np.errstate(over="ignore"):
        return link_laplacian(ctl) / m[:, None]


def constant_blocks(model: SystemModel) -> ConstantBlocks:
    """The link-independent Jacobian blocks of ``model``, as read-only arrays.

    The template is the relative-angle Jacobian (see relative_angle_jacobian)
    with a zero lower-left block: rows d(delta_i - delta_n)/dt =
    omega_i - omega_n over the damping block.  Computed once per model
    through SystemModel.constant_blocks.
    """
    n = model.n
    coupling = coupling_matrix(model.net, model.op.delta_s, model.m)
    damping = np.diag(-model.d / model.m)
    template = np.zeros((2 * n - 1, 2 * n - 1))
    template[: n - 1, n - 1 : 2 * n - 2] = np.eye(n - 1)
    template[: n - 1, 2 * n - 2] = -1.0
    template[n - 1 :, n - 1 :] = damping
    for block in (coupling, damping, template):
        block.flags.writeable = False
    return ConstantBlocks(coupling=coupling, damping=damping, template=template)


def jacobian(model: SystemModel, ctl: ControlConfig) -> np.ndarray:
    """The full (2n, 2n) Jacobian [[0, I], [coupling + control, damping]] for ``ctl``."""
    const = model.constant_blocks
    n = model.n
    return np.block(
        [
            [np.zeros((n, n)), np.eye(n)],
            [const.coupling + control_matrix(ctl, model.m), const.damping],
        ]
    )


def relative_angle_jacobian(model: SystemModel, links, gain: float) -> np.ndarray:
    """(2n-1)x(2n-1) Jacobian over angles relative to the last machine and all speeds.

    The lower-left block coupling + control annihilates the all-ones vector,
    so d(delta_i - delta_n)/dt = omega_i - omega_n and the block only sees
    the relative angles.  This is the projection deviation_norms uses, and
    its spectrum is exactly that of the full Jacobian with the structural
    zero mode removed.  Only the control block depends on the links: the
    model's cached template is copied and coupling + control is written into
    its lower-left block.
    """
    const = model.constant_blocks
    n = model.n
    control = control_matrix(uniform_control(links, gain, model.op.delta_s), model.m)
    j = const.template.copy()
    np.add(const.coupling[:, : n - 1], control[:, : n - 1], out=j[n - 1 :, : n - 1])
    return j


def alpha_for_links(model: SystemModel, links, gain: float) -> float:
    """alpha_max of the system with the given link set at one common gain.

    The spectral abscissa of relative_angle_jacobian, one eigvals, so the
    structural zero mode never enters.  Every alpha_max gridlink reports
    comes from here.  Raises ValueError for non-finite entries (an
    overflowing gain).
    """
    j = relative_angle_jacobian(model, links, gain)
    if not np.all(np.isfinite(j)):
        raise ValueError("Jacobian has non-finite entries")
    return float(np.max(np.linalg.eigvals(j).real))


def spectral_abscissa(model: SystemModel, ctl: ControlConfig) -> SpectrumReport:
    """The full spectrum of ``model`` under ``ctl`` and alpha_max without the zero mode.

    alpha_max is alpha_for_links for the control's links and gain.  The
    eigenvalues are those of the full Jacobian, listed whole and sorted by
    descending real part; deflated_magnitude is their smallest |lambda|.
    Raises ValueError for an overflowing gain, checked on the full Jacobian:
    its last diagonal entry can overflow while the relative-angle one, which
    leaves that entry out, stays finite.
    """
    j = jacobian(model, ctl)
    if not np.all(np.isfinite(j)):
        raise ValueError("Jacobian has non-finite entries")
    eigvals = np.linalg.eigvals(j)
    eigvals = eigvals[np.lexsort((-eigvals.imag, -eigvals.real))]
    return SpectrumReport(
        eigenvalues=eigvals,
        alpha_max=alpha_for_links(model, ctl.links, ctl.gain),
        deflated=True,
        deflated_magnitude=float(np.min(np.abs(eigvals))),
    )
