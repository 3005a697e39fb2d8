"""Exact ``%.17g`` spelling of float64 blocks in numpy, and the binary file
writer that the OBJ and JSON writers share.

``spell`` yields ASCII bytes one pass (6144 numbers) at a time, and
``write_chunks`` hashes and writes each as it comes.  A pass of short dyadic
decimals (all finite, each |x| 2^K an integer for the smallest K <= 13, and
|x| 10^K < 10^17) takes the integer path: each x is D / 10^K for an integer
D < 10^17, so ``%.17g`` rounds nothing, and 2^-13 > 10^-4 keeps ``%g`` fixed;
its bytes are the ``%d`` digits of the integer part, then a point and the K
fraction digits up to the last nonzero one.  The paper's polynomial nets and
their lattices take it: 52 ns per number on cubic 64^2 at resolution 8,
46 on a paraboloid.  On any other pass the 17 digits come from numpy
arithmetic off by < 2^-45 of the last digit, and inf, nan and numbers
within 2^-40 of a rounding tie go to the writer's own spelling (122 ns per
number on a helicoid, of which the test takes 1.5).
"""

import contextlib
import functools
import hashlib
import os

import numpy as np

__all__ = ["int_digits", "spell", "write_chunks"]


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
    characters, what ``_decimal_digits`` defers.  Each path fills a byte table
    whose 0s are then deleted: on the general one, 32 slots per number (lead,
    sign, "0.000", 18 for the digits and point, "e-XXX", trail).
    """
    step = _PASS // block.shape[1]
    for r in range(0, len(block), step):
        x = block[r:r + step].ravel()
        parts = _dyadic(x)
        yield _spell_records(x, lead, trail, deferred) if parts is None \
            else _spell_dyadic(x, *parts, lead, trail)


def int_digits(x: np.ndarray, rows: np.ndarray):
    """Spell the non-negative integers ``x`` as ``%d`` does into ``rows``, one
    ASCII digit per row with the units in the last: ``rows[j]`` has the shape
    of ``x``, and a row above a number's leading digit gets 0, the byte that
    every writer deletes."""
    for j in range(len(rows) - 1, -1, -1):
        q = x // 10
        d = q * 10
        np.subtract(x, d, out=d)
        d += ord("0")
        if j < len(rows) - 1:       # the units digit, 0 too, is always shown
            d *= x > 0
        rows[j] = d
        x = q


def _dyadic(x: np.ndarray):
    """(whole, fraction, K) when ``x`` takes the integer path, else None:
    the integer parts of |x| and the rest times 2^K, as uint16."""
    ax = np.abs(x)
    top = ax.max()
    if not top < 1e17:          # nan and inf fail here too
        return None
    head = ax[:96] * 2.0 ** 13   # a pass that fails mostly fails here, at a third of the cost
    if (head != np.floor(head)).any():
        return None
    fraction, whole = np.modf(ax)
    fraction *= 2.0 ** 13
    low = fraction.astype(np.uint16)
    if (low != fraction).any():
        return None
    bits = int(np.bitwise_or.reduce(low))
    places = 14 - (bits & -bits).bit_length() if bits else 0
    if not top < 10.0 ** (17 - places):
        return None
    return whole, low >> (13 - places), places


def _table(x: np.ndarray, width: int, lead: tuple, trail: bytes) -> np.ndarray:
    """A zeroed (width, n) byte table, one column per number of ``x``, holding
    each number's lead (slots 0-1), sign (slot 2) and trail (the last slot)."""
    rec = np.zeros((width, len(x)), np.uint8)
    for c, (before, after) in enumerate(zip(lead, trail)):
        rec[:len(before), c::len(lead)] = np.frombuffer(before, np.uint8)[:, None]
        rec[-1, c::len(lead)] = after
    rec[2] = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    return rec


def _spell_dyadic(x, whole, fraction, places: int, lead: tuple, trail: bytes) -> bytes:
    """The records of a ``_dyadic`` pass: sign, ``whole`` spelled by
    ``int_digits``, and, where ``fraction`` is not 0, a point and its digits
    up to the last nonzero one, each digit 5 times the remainder, shifted."""
    top = int(whole.max())
    point = 3 + len(str(top))       # the slot of the point
    rec = _table(x, point + places + 2, lead, trail)
    int_digits(whole.astype(np.uint32 if top < 1 << 32 else np.uint64), rec[3:point])
    shown = fraction != 0
    rec[point] = shown * np.uint8(ord("."))
    for j in range(places):     # fraction / 2^(places - j) is what is left to spell
        fraction *= 5
        rec[point + 1 + j] = ((fraction >> (places - 1 - j)) + ord("0")) * shown
        fraction &= (1 << (places - 1 - j)) - 1
        shown = fraction != 0
    return rec.T.tobytes().translate(None, b"\0")


def _spell_records(x: np.ndarray, lead: tuple, trail: bytes, deferred) -> bytes:
    n = len(x)
    digits, k, defer = _decimal_digits(x)
    rec = _table(x, 32, lead, trail)
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
