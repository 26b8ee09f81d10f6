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


def constant_blocks(model: SystemModel) -> ConstantBlocks:
    """The link-independent Jacobian blocks of ``model``, as read-only arrays.

    Computed once per model through SystemModel.constant_blocks.
    """
    coupling = coupling_matrix(model.net, model.op.delta_s, model.m)
    damping = np.diag(-model.d / model.m)
    template = relative_angle_jacobian(np.zeros_like(coupling), damping)
    for block in (coupling, damping, template):
        block.flags.writeable = False
    return ConstantBlocks(coupling=coupling, damping=damping, template=template)


def jacobian_blocks(model: SystemModel, ctl: ControlConfig) -> JacobianBlocks:
    """The Jacobian's blocks at the operating point for ``ctl``.

    Coupling and damping are the model's cached, read-only ones; the control
    block is L_h / m for the links at the control's one gain.  The assembled
    matrix has the swing structure that spectral_abscissa requires.
    """
    const = model.constant_blocks
    control = control_matrix(ctl, model.m)
    return JacobianBlocks(
        coupling=const.coupling,
        control=control,
        damping=const.damping,
        assembled=assemble_jacobian(const.coupling, control, const.damping),
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
    """Eigenvalues of an assembled swing Jacobian and alpha_max without the zero mode.

    The structural zero mode is removed exactly: alpha_max comes from the
    relative-angle Jacobian, and the report's deflated_magnitude is the
    smallest |lambda| of the full spectrum, which is listed whole.  Raises
    ValueError for a matrix that is non-finite, not square 2n x 2n, or
    without the swing structure (see _has_swing_structure).
    """
    j = np.asarray(j, dtype=float)
    if not np.all(np.isfinite(j)):
        raise ValueError("Jacobian has non-finite entries")
    two_n = j.shape[0]
    if j.shape != (two_n, two_n) or two_n % 2 != 0:
        raise ValueError(f"expected a square 2n x 2n matrix, got {j.shape}")
    if not _has_swing_structure(j):
        raise ValueError("expected a swing Jacobian: top blocks [0, I], lower-left rows summing to zero")
    n = two_n // 2

    eigvals = np.linalg.eigvals(j)
    eigvals = eigvals[np.lexsort((-eigvals.imag, -eigvals.real))]
    return SpectrumReport(
        eigenvalues=eigvals,
        alpha_max=_alpha(relative_angle_jacobian(j[n:, :n], j[n:, n:])),
        deflated=True,
        deflated_magnitude=float(np.min(np.abs(eigvals))),
    )


def alpha_for_links(model: SystemModel, links, gain: float) -> float:
    """alpha_max of the system with the given link set at one common gain.

    The spectral abscissa of the relative-angle Jacobian, so the structural
    zero mode never enters (the blocks have the swing structure by
    construction, so no check is needed).  Only the control block depends
    on the links: each call copies the model's cached template, which holds
    the [0, I, -1] top rows and the damping, writes coupling + control into
    its lower-left block, and takes one eigvals.  Bitwise equal to
    spectral_abscissa(jacobian_blocks(model, ctl).assembled).alpha_max.
    """
    const = model.constant_blocks
    n = model.n
    control = control_matrix(uniform_control(links, gain, model.op.delta_s), model.m)
    j = const.template.copy()
    np.add(const.coupling[:, : n - 1], control[:, : n - 1], out=j[n - 1 :, : n - 1])
    return _alpha(j)
