"""Exact ``%.17g`` spelling of float64 blocks in numpy, and the binary file
writer that the OBJ and JSON writers share.

The 17 digits come from numpy arithmetic off by < 2^-45 of the last digit;
inf, nan and numbers within 2^-40 of a rounding tie go to the writer's own
per-number spelling.  ``spell`` yields ASCII bytes one pass (6144 numbers)
at a time and ``write_chunks`` hashes and writes each as it comes, so no
writer holds a whole file's text or reads a file back to digest it.
"""

import contextlib
import functools
import hashlib
import os

import numpy as np

__all__ = ["spell", "write_chunks"]


# Numbers per pass of spell, a multiple of 3 so that an OBJ pass holds whole vertex
# rows.  Its temporaries (1.4 MB) are what a writer holds; at twice the size glibc
# trimmed and refaulted them every pass (8.7k minor faults per 196k numbers).
_PASS = 3 << 11
_K_MIN = -324                 # decimal exponent of power-table entry 0
_VELTKAMP = 134217729.0       # 2^27 + 1 splits a double into two 26-bit halves
_SLOT = np.arange(18, dtype=np.int8)[:, None]


@functools.cache
def _power_tables():
    """Read-only tables for k = -324..308 from exact integers: 10^(16-k) = (hi_hi
    + hi_lo + lo) 2^shift to 2^-106, and ``least[k]``, the smallest double >= 10^k."""
    hi, lo, shift, least = [], [], [], []
    for k in range(_K_MIN, 309):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        s = num.bit_length() - den.bit_length()
        num, den = num << max(0, -s), den << max(0, s)
        hi.append(num / den)
        lo.append((num * 2 ** 53 - int(hi[-1] * 2 ** 53) * den) / (den << 53))
        shift.append(s)
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        a, b = (num / den).as_integer_ratio()
        least.append(np.nextafter(num / den, np.inf) if a * den < num * b else num / den)
    hi = np.array(hi)
    hi_hi = hi * _VELTKAMP - (hi * _VELTKAMP - hi)
    tables = hi_hi, hi - hi_hi, np.array(lo), np.array(shift, np.int32), np.array(least)
    for table in tables:
        table.flags.writeable = False
    return tables


def _decimal_digits(x: np.ndarray):
    """(D, k, defer) with D = round-half-even(|x| 10^(16-k)) and k = floor(log10 |x|).

    The frexp mantissa times the double-double 10^(16-k) (TwoProduct on
    Veltkamp halves) is off by < 2^-45 in units of D in [10^16, 10^17);
    ``defer`` marks inf, nan and what lies within 2^-40 of a half-integer.
    """
    hi_hi, hi_lo, lo, shift, least = _power_tables()
    finite = np.isfinite(x)
    ax = np.abs(x)
    ok = finite & (ax != 0)
    np.copyto(ax, 1.0, where=~ok)
    m, e = np.frexp(ax)
    # 2^(e-1) <= |x| < 2^e puts k at floor((e-1) log10 2) or one above.
    i = np.floor((e - 1) * 0.30102999566398120).astype(np.int32) - _K_MIN
    i += ax >= least.take(i + 1)
    m_hi = m * _VELTKAMP - (m * _VELTKAMP - m)
    m_lo = m - m_hi
    b_hi, b_lo = hi_hi.take(i), hi_lo.take(i)
    p = m * (b_hi + b_lo)
    err = m_hi * b_hi - p + m_hi * b_lo + m_lo * b_hi + m_lo * b_lo + m * lo.take(i)
    e += shift.take(i)
    frac = np.ldexp(err, e)
    below = np.floor(frac)
    frac -= below
    digits = np.ldexp(p, e).astype(np.int64) + below.astype(np.int64) + (frac > 0.5)
    defer = (np.abs(frac - 0.5) < 2.0 ** -40) & ok | ~finite
    carry = digits == 10 ** 17      # %g takes its style from the rounded exponent
    digits -= carry * (9 * 10 ** 16)
    i += carry + _K_MIN
    return digits * ok, i * ok, defer


def spell(block: np.ndarray, lead: tuple, trail: bytes, deferred):
    """Yield the records of an (n, p) float64 block as ASCII bytes, one pass of
    rows at a time.

    Column c's number follows ``lead[c]`` (at most 2 bytes) and precedes the
    byte ``trail[c]`` (0 for none); ``deferred`` spells, in at most 29
    characters, what ``_decimal_digits`` defers.  Each number fills 32
    byte-table slots (lead, sign, "0.000", 18 for the digits and point,
    "e-XXX", trail) whose 0s are then deleted.
    """
    step = _PASS // block.shape[1]
    for r in range(0, len(block), step):
        yield _spell_records(block[r:r + step].ravel(), lead, trail, deferred)


def _spell_records(x: np.ndarray, lead: tuple, trail: bytes, deferred) -> bytes:
    n = len(x)
    digits, k, defer = _decimal_digits(x)
    rec = np.zeros((32, n), np.uint8)
    for c, (before, after) in enumerate(zip(lead, trail)):
        rec[:len(before), c::len(lead)] = np.frombuffer(before, np.uint8)[:, None]
        rec[31, c::len(lead)] = after
    rec[2] = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    # a[1 + j] is the j-th of the 17 digits; a[0] and a[18] are padding.
    a = np.zeros((19, n), np.uint8)
    a[1] = first = digits // 10 ** 16
    rest = digits - first * 10 ** 16
    high = rest // 10 ** 8
    octs = np.stack([high, rest - high * 10 ** 8]).astype(np.uint32)
    upper = octs // 10 ** 4
    quads = np.stack([upper, octs - upper * 10 ** 4], axis=1).reshape(4, n).astype(np.uint16)
    for place in range(3, -1, -1):     # the last digit, then drop it
        a[2 + place:18:4] = quads - 10 * (quads := quads // 10)
    significant = ((a[1:18] != 0) * np.arange(1, 18, dtype=np.uint8)[:, None]).max(axis=0)
    a[1:18] += ord("0")
    fixed = (k >= -4) & (k < 17)
    small = fixed & (k < 0)
    point = np.where(small, 16, k * fixed).astype(np.int8)   # the point follows this digit
    shown = np.maximum(significant.view(np.int8), (point + 1) * ~small)
    chars = a[:18] + (a[1:] - a[:18]) * (_SLOT <= point)
    chars += (ord(".") - chars) * (_SLOT == point + 1)
    rec[8:26] = chars * (_SLOT < shown + (shown > point + 1))
    if small.any():
        rec[3:8] = np.frombuffer(b"0.000", np.uint8)[:, None] \
            * (small & (np.array([[0], [0], [1], [2], [3]]) < -k))
    if not fixed.all():
        ak = np.abs(k)
        rec[26:31] = ~fixed * np.stack([np.full(n, ord("e")), np.where(k < 0, ord("-"), ord("+")),
                                        (ak // 100 + 48) * (ak >= 100), ak // 10 % 10 + 48,
                                        ak % 10 + 48])
    columns = {}        # deferred text -> the records that spell it
    for j, value in zip(np.flatnonzero(defer).tolist(), x[defer].tolist()):
        columns.setdefault(deferred(value), []).append(j)
    rec[2:31, defer] = 0
    for text, js in columns.items():
        rec[2:2 + len(text), js] = np.frombuffer(text.encode("ascii"), np.uint8)[:, None]
    return rec.T.tobytes().translate(None, b"\0")   # record j is column j's 32 slots


def write_chunks(path, chunks) -> str:
    """Write bytes chunks to the binary file ``path`` as they come and return the
    SHA-256 hex digest of what was written; if anything fails once it is open (a
    chunk generator raising too), remove the file."""
    digest = hashlib.sha256()
    try:
        with open(path, "wb") as handle:
            try:
                for chunk in chunks:
                    digest.update(chunk)
                    handle.write(chunk)
            except BaseException:
                handle.close()
                with contextlib.suppress(OSError):
                    os.remove(path)
                raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    return digest.hexdigest()
