"""State Jacobian at the operating point and its spectral abscissa.

The Jacobian is assembled in block form [[0, I], [coupling + control,
damping]] over (d delta, d omega).  All blocks are exact partial derivatives
of the implemented swing right-hand side, so finite differences of the
dynamics must reproduce them entry for entry.  Stability is judged by
alpha_max, the largest real part over the spectrum without the structural
zero mode that comes from uniform-angle-shift invariance; the mode is
removed exactly by writing angles relative to the last machine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gridlink.dynamics import ControlConfig, link_laplacian, uniform_control
from gridlink.model import SystemModel
from gridlink.reduction import ReducedNetwork


@dataclass(frozen=True)
class JacobianBlocks:
    coupling: np.ndarray  # (n, n) network block, 1/s^2
    control: np.ndarray  # (n, n) link-feedback block, 1/s^2
    damping: np.ndarray  # (n, n) diagonal -d_i/m_i, 1/s
    assembled: np.ndarray  # (2n, 2n)


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray  # (2n,) complex, sorted by descending real part
    alpha_max: float  # max real part over the retained spectrum, 1/s
    deflated: bool  # True when the structural zero mode was removed
    deflated_magnitude: float | None  # smallest |lambda| of the full spectrum when deflated


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

    With negative gains this is a weighted Laplacian scaled by 1/m_i:
    negative diagonal, positive off-diagonals.  An overflowing gain gives
    infinite entries, which spectral evaluation rejects.
    """
    m = np.asarray(m, dtype=float)
    with np.errstate(over="ignore"):
        return link_laplacian(ctl) / m[:, None]


def damping_matrix(d: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Diagonal block with entries -d_i/m_i."""
    return np.diag(-np.asarray(d, dtype=float) / np.asarray(m, dtype=float))


def assemble_jacobian(coupling: np.ndarray, control: np.ndarray, damping: np.ndarray) -> np.ndarray:
    """[[0, I], [coupling + control, damping]] over (d delta, d omega)."""
    n = coupling.shape[0]
    if coupling.shape != (n, n) or control.shape != (n, n) or damping.shape != (n, n):
        raise ValueError("blocks must be square and conformable")
    return np.block(
        [
            [np.zeros((n, n)), np.eye(n)],
            [coupling + control, damping],
        ]
    )


def jacobian_blocks(model: SystemModel, ctl: ControlConfig) -> JacobianBlocks:
    coupling = coupling_matrix(model.net, model.op.delta_s, model.m)
    control = control_matrix(ctl, model.m)
    damping = damping_matrix(model.d, model.m)
    return JacobianBlocks(
        coupling=coupling,
        control=control,
        damping=damping,
        assembled=assemble_jacobian(coupling, control, damping),
    )


def relative_angle_jacobian(swing: np.ndarray, damping: np.ndarray) -> np.ndarray:
    """(2n-1)x(2n-1) Jacobian over angles relative to the last machine and all speeds.

    ``swing`` is the lower-left block (coupling + control) and must annihilate
    the all-ones vector; then d(delta_i - delta_n)/dt = omega_i - omega_n and
    swing @ delta only sees the relative angles.  This is the projection
    deviation_norms uses, and its spectrum is exactly that of the full
    Jacobian with the structural zero mode removed.
    """
    n = swing.shape[0]
    r = np.zeros((2 * n - 1, 2 * n - 1))
    r[: n - 1, n - 1 : 2 * n - 2] = np.eye(n - 1)
    r[: n - 1, 2 * n - 2] = -1.0
    r[n - 1 :, : n - 1] = swing[:, : n - 1]
    r[n - 1 :, n - 1 :] = damping
    return r


def _has_swing_structure(j: np.ndarray) -> bool:
    """Top blocks exactly [0, I] and lower-left rows summing to zero.

    The row-sum bound, 2n eps times each row's absolute sum, covers the
    rounding of forming the diagonal as minus the off-diagonal sum, adding
    the control block, and summing the row again.
    """
    n = j.shape[0] // 2
    if np.any(j[:n, :n]) or not np.array_equal(j[:n, n:], np.eye(n)):
        return False
    swing = j[n:, :n]
    bound = 2 * n * np.finfo(float).eps * np.abs(swing).sum(axis=1)
    return bool(np.all(np.abs(swing.sum(axis=1)) <= bound))


def _alpha(j: np.ndarray) -> float:
    """Largest real part of the spectrum; eigenvalues only."""
    if not np.all(np.isfinite(j)):
        raise ValueError("Jacobian has non-finite entries")
    return float(np.max(np.linalg.eigvals(j).real))


def spectral_abscissa(j: np.ndarray) -> SpectrumReport:
    """Eigenvalues of the assembled Jacobian and alpha_max without the zero mode.

    A matrix with the swing structure (see _has_swing_structure) has its
    structural zero mode removed exactly: alpha_max comes from the
    relative-angle Jacobian, and the report's deflated_magnitude is the
    smallest |lambda| of the full spectrum.  Any other matrix is reported
    with deflated=False and alpha_max over the whole spectrum.
    """
    j = np.asarray(j, dtype=float)
    if not np.all(np.isfinite(j)):
        raise ValueError("Jacobian has non-finite entries")
    two_n = j.shape[0]
    if j.shape != (two_n, two_n) or two_n % 2 != 0:
        raise ValueError(f"expected a square 2n x 2n matrix, got {j.shape}")
    n = two_n // 2

    eigvals = np.linalg.eigvals(j)
    eigvals = eigvals[np.lexsort((-eigvals.imag, -eigvals.real))]
    if _has_swing_structure(j):
        reduced = relative_angle_jacobian(j[n:, :n], j[n:, n:])
        return SpectrumReport(
            eigenvalues=eigvals,
            alpha_max=_alpha(reduced),
            deflated=True,
            deflated_magnitude=float(np.min(np.abs(eigvals))),
        )
    return SpectrumReport(
        eigenvalues=eigvals, alpha_max=float(np.max(eigvals.real)), deflated=False, deflated_magnitude=None
    )


def alpha_for_links(model: SystemModel, links, gain: float) -> float:
    """alpha_max of the system with the given link set at one common gain.

    The spectral abscissa of the relative-angle Jacobian, so the structural
    zero mode never enters (the blocks have the swing structure by
    construction, so no check is needed).  Bitwise equal to
    spectral_abscissa(blocks.assembled).alpha_max.
    """
    ctl = uniform_control(links, gain, model.op.delta_s)
    blocks = jacobian_blocks(model, ctl)
    return _alpha(relative_angle_jacobian(blocks.coupling + blocks.control, blocks.damping))
