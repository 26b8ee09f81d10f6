"""Document rendering and parsing for CLI outputs.

Two views exist for most reports: a human table rounded to 4 significant
digits and a structured JSON document carrying full round-trip double
precision.  Every document starts with a provenance header (tool version,
configuration echo, case checksum) and is byte-deterministic for identical
inputs.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from typing import IO, Any

import numpy as np

from gridlink.dynamics import grid_times
from gridlink.linearization import SpectrumReport
from gridlink.planner import PlanResult
from gridlink.reduction import OperatingPoint, ReducedNetwork


def sig4(value: float) -> str:
    return f"{value:.4g}"


# --- floats as repr writes them, a block at a time ----------------------------
#
# repr writes the shortest decimal that reads back as the same double, the nearest one when two are as short
# (Gay, "Correctly rounded binary-decimal and decimal-binary conversions", 1990), positionally for
# 1e-4 <= |x| < 1e16.  repr_rows decides those digits for a whole block with numpy, for every x in that range
# whose significand is not a power of two; every other value (zeros, subnormals, huge values, powers of two,
# inf and nan) is written by repr itself, and so is each value whose decision falls within _MARGIN below.
#
# With u = 4 + floor(log10|x|) (0..19) and j = 20 - u, P = |x| * 10**j lies in [1e16, 1e17).  10**j is a
# double for j <= 22, so Dekker's product of |x| and 10**j (Veltkamp's split) gives P exactly as hi + err, and
# its nearest integer N is a 17-digit decimal of x.  The decimals that read back as x are those within
# H = ulp(x) / 2 * 10**j of P, a power of two times 10**j, also exact (the ones at exactly H depend on the
# significand's parity, so they fall within the margin).  H is at most 11.2 and N is always within it.  A
# candidate with two or more digits fewer is a multiple of 100 within H of P, so it can only be the multiple of
# 100 nearest P; otherwise the nearest multiple of 10 is tried, then N.  Each test compares a distance below
# 101 with H, computed with an error below 2**-46, and counts only when it clears _MARGIN = 2**-40; so does the
# choice between two candidates that are nearly equally near.
#
# Each value gets a _FIELD-byte field: its sign, the digits of the chosen decimal with the point in place, zeros
# for bytes not used, and from byte _SEP_AT its separator, right-aligned (a newline after a row's last value).
# The digits are written twice, the second copy one byte later, and per-value masks over uint64 words keep the
# integer part from the first copy and the fraction from the second, so the point fits between them; the zero
# bytes are deleted at the end.  Every table is built from Python ints or bytes, with no byte-order assumption.

_FIELD = 32
_SEP_AT = 25  # a field's bytes before _SEP_AT hold the value's text, repr's too (at most 24 characters)
_MARGIN = 2.0**-40
_CHUNK = 2048  # values rendered at once: the temporaries of a larger chunk fall out of the CPU cache
_BINADES = range(-14, 54)  # the binary exponents of 1e-4 <= x < 1e16
# u = 4 + floor(log10 x) at the bottom of each binade; a binade holds at most one power of ten
_BINADE_U = np.array([4 + (len(str(2**e)) - 1 if e >= 0 else len(str(5**-e)) - 1 + e) for e in _BINADES])
_POW10 = np.array([float(10**e) if e >= 0 else 1 / 10**-e for e in range(-4, 17)])  # _POW10[u] = 10**(u - 4)


def _halves(v: int) -> tuple[float, float]:
    """The integer v as high + low, high its leading 26 bits: a split for Dekker's product, exact on ints."""
    cut = max(v.bit_length() - 26, 0)
    return float(v >> cut << cut), float(v - (v >> cut << cut))


_SCALE = np.array([float(10 ** (20 - u)) for u in range(20)])
_SCALE_HIGH, _SCALE_LOW = (np.array(half) for half in zip(*(_halves(10 ** (20 - u)) for u in range(20))))


def _quads() -> np.ndarray:
    """The 4-digit groups "0000" to "9999" in ASCII, one uint32 word each, built from the 100 digit pairs."""
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
    quads = np.empty((100, 100, 2), np.uint16)
    quads[:, :, 0] = pairs[:, None]
    quads[:, :, 1] = pairs
    return quads.view(np.uint32).ravel()


_QUADS = _quads()
_ABS = np.uint64(2**63 - 1)
_SIGNIFICAND = np.uint64(2**52 - 1)
_LOW, _HIGH, _SAFE = np.array([1e-4, 1e16, 1.5]).view(np.uint64)


def _layout() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The masks and marks of a field, as uint64 words, by u (integer part), u and end (fraction), sign and u.

    The first copy of the digits has digit i of "0000" + the 17 digits at byte i + 3, the second at i + 4; the
    point goes at byte u + 4, and end is one past the last digit written.  For |x| < 1 the marks hold the zero
    before the point and the zeros after it, so neither copy needs the leading "0000".
    """
    keep_int = np.zeros((20, _FIELD), np.uint8)
    keep_frac = np.zeros((20, 22, _FIELD), np.uint8)
    marks = np.zeros((2, 20, _FIELD), np.uint8)
    marks[1, :, 0] = ord("-")
    for u in range(20):
        keep_int[u, 7 : u + 4] = 0xFF
        marks[:, u, u + 4] = ord(".")
        if u < 4:
            marks[:, u, u + 3] = ord("0")
            marks[:, u, u + 5 : 8] = ord("0")
        for end in range(u + 2, 22):
            keep_frac[u, end, max(u + 5, 8) : end + 4] = 0xFF
    return tuple(table.reshape(-1, _FIELD).view(np.uint64) for table in (keep_int, keep_frac, marks))


_KEEP_INT, _KEEP_FRAC, _MARKS = _layout()


def repr_rows(block: np.ndarray, sep: str) -> str:
    """The rows of the 2-D float64 block as text, each row sep.join(map(repr, row)) and a newline.

    sep is ASCII, at most 7 characters, and the block has a column or more.
    """
    return "".join(_repr_chunks(block, sep))


def _repr_chunks(block: np.ndarray, sep: str) -> Iterator[str]:
    """repr_rows(block, sep) in pieces of whole rows, _CHUNK values (or one row) each, rendered as asked for."""
    rows, cols = block.shape
    if len(sep.encode("ascii")) > _FIELD - _SEP_AT:
        raise ValueError(f"separator {sep!r} is longer than {_FIELD - _SEP_AT} characters")
    step = max(1, _CHUNK // cols)
    return (_render(block[start : start + step], sep) for start in range(0, rows, step))


def _render(block: np.ndarray, sep: str) -> str:
    rows, cols = block.shape
    a = np.ravel(block)
    bits = a.view(np.uint64) & _ABS
    fast = (bits >= _LOW) & (bits < _HIGH) & (bits & _SIGNIFICAND != 0)
    x = np.where(fast, bits, _SAFE).view(np.float64)  # |a|, or 1.5 for a value repr writes
    u = _BINADE_U[(x.view(np.uint64) >> np.uint64(52)).astype(np.intp) - (1023 + _BINADES.start)]
    u += x >= _POW10[u + 1]

    # P = hi + err exactly, N = round(P) and rem = P - N; half = H
    scale = _SCALE[u]
    hi = x * scale
    big = x * 134217729.0  # 2**27 + 1
    x_high = big - (big - x)
    x_low = x - x_high
    s_high, s_low = _SCALE_HIGH[u], _SCALE_LOW[u]
    err = ((x_high * s_high - hi) + x_high * s_low + x_low * s_high) + x_low * s_low
    carry = np.rint(err)
    rem = err - carry
    n = hi.astype(np.int64) + carry.astype(np.int64)
    half = np.spacing(x) * 0.5 * scale

    # the nearest multiple of 100, then of 10, each taken when within H of P
    r100 = (n % 100).astype(np.float64)
    r10 = r100 - 10.0 * np.floor(r100 * 0.1)
    t100 = r100 + rem
    up100 = np.where(t100 >= 50.0, 100.0, 0.0)
    gap100 = half - np.abs(t100 - up100)
    t10 = r10 + rem
    up10 = np.where(t10 >= 5.0, 10.0, 0.0)
    gap10 = half - np.abs(t10 - up10)
    by100 = gap100 > _MARGIN
    by10 = gap10 > _MARGIN
    tie = np.abs(np.where(by10, t10 - 5.0, np.abs(rem) - 0.5))
    unsure = (np.abs(gap100) <= _MARGIN) | (~by100 & ((np.abs(gap10) <= _MARGIN) | (tie <= _MARGIN)))
    digits = n + np.where(by100, up100 - r100, np.where(by10, up10 - r10, 0.0)).astype(np.int64)

    # the 17 digits at bytes 7..23: the first alone, then four groups of four
    high = digits // 100000000  # the leading nine digits
    eights = np.empty((a.size, 2), np.int64)
    eights[:, 0] = high % 100000000
    eights[:, 1] = digits - high * 100000000
    upper = eights // 10000
    quads = np.empty((a.size, 4), np.int64)
    quads[:, 0::2] = upper
    quads[:, 1::2] = eights - upper * 10000
    field = np.empty((a.size, _FIELD), np.uint8)
    field[:, 7] = high // 100000000 + ord("0")
    np.take(_QUADS, quads, out=field[:, 8:24].view(np.uint32), mode="clip")

    # trailing zeros: none for N, one for a multiple of 10 (it is not one of 100), counted for a multiple of 100
    zeros = by10.astype(np.intp)
    many = np.flatnonzero(by100)
    if many.size:
        zeros[many] = np.argmax(field[many, 23:6:-1] != ord("0"), axis=1)
    end = np.maximum(21 - zeros, u + 2)

    shifted = np.empty_like(field)
    shifted[:, 8:25] = field[:, 7:24]
    words = field.view(np.uint64)
    words &= np.take(_KEEP_INT, u, axis=0)
    fraction = shifted.view(np.uint64)
    fraction &= np.take(_KEEP_FRAC, u * 22 + end, axis=0)
    words |= fraction
    words |= np.take(_MARKS, np.signbit(a) * 20 + u, axis=0)
    tails = np.zeros((cols, _FIELD - 24), np.uint8)  # the word of bytes 24..31
    tails[:-1, len(tails[0]) - len(sep) :] = np.frombuffer(sep.encode("ascii"), np.uint8)
    tails[-1, -1] = ord("\n")
    words.reshape(rows, cols, -1)[:, :, -1] |= tails.view(np.uint64)[:, 0]

    slow = np.flatnonzero(~fast | unsure)
    if slow.size:
        texts = b"".join(repr(v).encode("ascii").ljust(_SEP_AT, b"\0") for v in a[slow].tolist())
        field[slow, :_SEP_AT] = np.frombuffer(texts, np.uint8).reshape(-1, _SEP_AT)
    return field.tobytes().translate(None, b"\0").decode("ascii")


# tolist() gives the same Python floats as float() per value, without a numpy scalar each.
def _complex_pairs(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _reals(a: np.ndarray) -> list:
    return np.asarray(a, dtype=float).tolist()


def header_lines(meta: dict[str, Any]) -> list[str]:
    return [f"# {key}: {value}" for key, value in meta.items()]


def render_json(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2) + "\n"


# --- spectrum ---------------------------------------------------------------


def spectrum_document(report: SpectrumReport, meta: dict[str, Any]) -> dict[str, Any]:
    return {
        "meta": meta,
        "alpha_max": report.alpha_max,
        "deflated": report.deflated,
        "deflated_magnitude": report.deflated_magnitude,
        "eigenvalues": _complex_pairs(report.eigenvalues),
    }


def spectrum_table(report: SpectrumReport, meta: dict[str, Any]) -> str:
    lines = header_lines(meta)
    lines.append(f"alpha_max: {sig4(report.alpha_max)}")
    lines.append(f"deflated_zero_mode: true (|lambda| = {sig4(report.deflated_magnitude)})")
    lines.append("eigenvalue_re,eigenvalue_im")
    for v in report.eigenvalues:
        lines.append(f"{sig4(v.real)},{sig4(v.imag)}")
    return "\n".join(lines) + "\n"


# --- plan -------------------------------------------------------------------


_PLAN_COLUMNS = ("iteration", "gen_i", "gen_k", "alpha_max", "marginal_gain")


def _plan_rows(result: PlanResult) -> list[tuple]:
    # Iterations are numbered from 1 and link endpoints reported 1-based,
    # matching generator numbering in the human tables; row 0 is the
    # uncontrolled baseline.  A row's marginal gain is the previous row's
    # alpha_max minus its own, the subtraction the planners decide by.
    rows: list[tuple] = [(0, "", "", result.baseline_alpha, 0.0)]
    before = result.baseline_alpha
    for index, it in enumerate(result.iterations, start=1):
        rows.append((index, it.link[0] + 1, it.link[1] + 1, it.alpha_max_after, before - it.alpha_max_after))
        before = it.alpha_max_after
    return rows


def plan_meta(result: PlanResult, meta: dict[str, Any]) -> dict[str, Any]:
    out = dict(meta)
    out["baseline_alpha"] = repr(result.baseline_alpha)
    out["final_alpha"] = repr(result.final_alpha)
    out["improvement"] = repr(result.baseline_alpha - result.final_alpha)
    out["links_installed"] = len(result.iterations)
    out["stopped_early"] = str(result.stopped_early).lower()
    if result.stop_reason:
        out["stop_reason"] = result.stop_reason
    return out


def plan_table(result: PlanResult, meta: dict[str, Any]) -> str:
    lines = header_lines(plan_meta(result, meta))
    lines.append(",".join(_PLAN_COLUMNS))
    for index, gi, gk, alpha, gain in _plan_rows(result):
        lines.append(f"{index},{gi},{gk},{sig4(alpha)},{sig4(gain)}")
    return "\n".join(lines) + "\n"


def plan_document(result: PlanResult, meta: dict[str, Any]) -> dict[str, Any]:
    return {
        "meta": plan_meta(result, meta),
        "baseline_alpha": result.baseline_alpha,
        "final_alpha": result.final_alpha,
        "improvement": result.baseline_alpha - result.final_alpha,
        "stopped_early": result.stopped_early,
        "stop_reason": result.stop_reason,
        "iterations": [dict(zip(_PLAN_COLUMNS, row)) for row in _plan_rows(result)[1:]],
    }


# --- reduction --------------------------------------------------------------


def reduction_document(net: ReducedNetwork, op: OperatingPoint, meta: dict[str, Any]) -> dict[str, Any]:
    return {
        "meta": meta,
        "n": net.n,
        "e_mag": _reals(net.e_mag),
        "y_g": _complex_pairs(net.y_g),
        "c": _reals(net.c),
        "d": _reals(net.d),
        "delta_s": _reals(op.delta_s),
        "omega_s": float(op.omega_s),
        "p_m_const": _reals(op.p_m_const),
    }


# --- trajectory -------------------------------------------------------------
#
# write_table and write_document write the rows [time, delta_1..delta_n, omega_1..omega_n] of a trajectory, dt
# apart, under the same column names, up to the footer that is rendered once the decay fit is done.  blocks
# yields (rows, block) for consecutive row slices from row 0, block[i] holding the stacked state [delta, omega]
# at time (rows.start + i) dt, as dynamics.integrate yields them; each block is rendered, its times made by
# dynamics.grid_times, before the next is asked for, and no row is kept.  The CLI's _TrajectoryWriter runs
# them, in a forked process that reads the blocks from a pipe, or inline.


def _columns(width: int) -> list[str]:
    n = width // 2
    return ["time"] + [f"delta_{i + 1}" for i in range(n)] + [f"omega_{i + 1}" for i in range(n)]


def write_table(out: IO[str], blocks: Iterator[tuple[slice, np.ndarray]], dt: float, meta: dict[str, Any]) -> None:
    """Write the delimited table to out: the header and the column line, then each block's rows as it comes."""
    for rows, block in blocks:
        if not rows.start:
            out.write("\n".join(header_lines(meta) + [",".join(_columns(block.shape[1]))]) + "\n")
        out.write(repr_rows(np.column_stack((grid_times(rows, dt), block)), ","))


def table_footer(footer: dict[str, Any]) -> str:
    return "".join(line + "\n" for line in header_lines(footer))


def _json_members(doc: dict[str, Any]) -> str:
    """The members of a non-empty doc as render_json lays them out, without the enclosing braces."""
    return json.dumps(doc, indent=2)[2:-2]


def write_document(out: IO[str], blocks: Iterator[tuple[slice, np.ndarray]], dt: float,
                   meta: dict[str, Any]) -> None:
    """Write the structured trajectory to out: meta, columns and the table's rows, up to the summary.

    The layout is render_json's, except that each row sits on one line.  JSON writes a finite float as repr
    does, and every row integrate yields is finite.  A block is reshaped a _repr_chunks piece at a time: copies
    of its whole text would fragment the heap, and the writer's peak would creep up with the rows.
    """
    opening = "\n    ["
    for rows, block in blocks:
        if not rows.start:
            out.write("{\n" + _json_members({"meta": meta, "columns": _columns(block.shape[1])}) + ',\n  "rows": [')
        for text in _repr_chunks(np.column_stack((grid_times(rows, dt), block)), ", "):
            out.write(opening + text[:-1].replace("\n", "],\n    [") + "]")
            opening = ",\n    ["
    out.write("\n  ],\n")


def document_footer(footer: dict[str, Any]) -> str:
    return _json_members({"summary": footer}) + "\n}\n"
