"""FCIDUMP parsing and serialization.

The format is the free-form quantum-chemistry interchange: a namelist header

    &FCI NORB=8,NELEC=8,MS2=0,
     ORBSYM=1,1,1,1,1,1,1,1,
     ISYM=1,
    &END

terminated by ``&END`` or ``/``, followed by whitespace-separated records
``value i j k l`` with 1-based orbital indices and chemist-notation two-
electron integrals (ij|kl).  ``i j 0 0`` records are one-electron integrals,
``0 0 0 0`` the core energy.  Real orbitals give the integrals an 8-fold
permutation symmetry, which is expanded on load; conflicting duplicate
records and non-finite values are rejected.

Records are read and written in whole-array passes over one table of the
8-fold orbits (:func:`_orbits`), not one record at a time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fock import MAX_ORBITALS

_SYM_TOL = 1e-10
# integrals at or below this magnitude are not written
_WRITE_TOL = 1e-15


class FcidumpError(ValueError):
    pass


def _check_norb(norb: int) -> None:
    if not 1 <= norb <= MAX_ORBITALS:
        raise FcidumpError(f"NORB must be in [1, {MAX_ORBITALS}], got {norb}")


@dataclass
class FcidumpData:
    """One- and two-electron integrals with header metadata.

    ``h[i, j]`` is the one-electron integral and ``eri[i, j, k, l]`` the
    chemist-notation (ij|kl), both 0-based.  They must be finite, with the
    symmetry of real orbitals: ``h`` symmetric and ``eri`` unchanged under
    the generators (ji|kl), (ij|lk) and (kl|ij) of the 8-fold symmetry, so
    that every Hamiltonian built from them is real symmetric.
    """

    norb: int
    nelec: int
    ms2: int
    h: np.ndarray
    eri: np.ndarray
    core: float = 0.0
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_norb(self.norb)
        self.h = np.asarray(self.h, dtype=float)
        self.eri = np.asarray(self.eri, dtype=float)
        if self.h.shape != (self.norb, self.norb):
            raise FcidumpError("one-electron block has the wrong shape")
        if self.eri.shape != (self.norb,) * 4:
            raise FcidumpError("two-electron block has the wrong shape")
        if not all(np.isfinite(x).all() for x in (self.h, self.eri, self.core)):
            raise FcidumpError("integrals must be finite")
        if np.max(np.abs(self.h - self.h.T)) > _SYM_TOL:
            raise FcidumpError("one-electron integrals are not symmetric")
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            if np.max(np.abs(self.eri - self.eri.transpose(perm))) > _SYM_TOL:
                raise FcidumpError(f"two-electron integrals change under transposition {perm}")


def _unordered(a, b):
    """Number of the unordered pair {a, b} of non-negative integers."""
    hi, lo = np.maximum(a, b), np.minimum(a, b)
    return hi * (hi + 1) // 2 + lo


@lru_cache(maxsize=None)
def _orbits(norb: int):
    """Orbit tables of the index symmetries of real-orbital integrals.

    ``pair[a, b]`` numbers the unordered pair {a, b}, the orbit of a
    one-electron index; ``orbit[i, j, k, l]`` numbers the unordered pair of
    pairs {{i, j}, {k, l}}, the orbit of a two-electron index under the
    8-fold symmetry.  ``first`` holds, in increasing order, the flat index
    of each orbit's first tuple in the enumeration i, j <= i, k <= i,
    l <= k, which is the tuple and the order the writer uses.  The arrays
    are shared between calls and read-only.
    """
    a = np.arange(norb)
    pair = _unordered(a[:, None], a[None, :])
    orbit = _unordered(pair[:, :, None, None], pair[None, None, :, :])
    i, j, k, l = np.indices(orbit.shape)
    enumerated = np.flatnonzero((j <= i) & (k <= i) & (l <= k))
    _, at = np.unique(orbit.ravel()[enumerated], return_index=True)
    first = np.sort(enumerated[at])
    for table in (pair, orbit, first):
        table.flags.writeable = False
    return pair, orbit, first


def _header(text: str):
    """NORB, NELEC, MS2, the other namelist fields, and the text after the
    namelist."""
    match = re.search(r"&FCI(.*?)(?:&END|/)", text, flags=re.IGNORECASE | re.DOTALL)
    if not match:
        raise FcidumpError("missing &FCI ... &END header")
    header, body = match.group(1), text[match.end():]

    fields = {}
    for key, value in re.findall(r"([A-Za-z][A-Za-z0-9_]*)\s*=\s*([^=]*?)(?=[,\s][A-Za-z][A-Za-z0-9_]*\s*=|$)",
                                 header, flags=re.DOTALL):
        fields[key.upper()] = value.strip().rstrip(",").strip()
    for required in ("NORB", "NELEC", "MS2"):
        if required not in fields:
            raise FcidumpError(f"header is missing {required}")
    try:
        norb = int(fields.pop("NORB"))
        nelec = int(fields.pop("NELEC"))
        ms2 = int(fields.pop("MS2"))
    except ValueError as exc:
        raise FcidumpError(f"malformed header field: {exc}") from exc
    _check_norb(norb)  # before anything of size norb**4 is allocated
    return norb, nelec, ms2, fields, body


def _record(tokens: list, r: int):
    """Record ``r`` as Python numbers: value, i, j, k, l."""
    return (float(tokens[5 * r]), *map(int, tokens[5 * r + 1:5 * r + 5]))


def _convert(tokens: list):
    """Values and (records, 4) orbital indices of the records before the
    first malformed one, and the error for that one (None if there is none).

    The tokens go through Python's own ``float`` and ``int``, which fix the
    accepted syntax and the parsed bits.
    """
    index_tokens = tokens[:]
    del index_tokens[::5]
    try:
        values = list(map(float, tokens[::5]))
        indices = list(map(int, index_tokens))
    except ValueError:
        for pos in range(0, len(tokens), 5):
            try:
                _record(tokens, pos // 5)
            except ValueError as exc:
                fault = FcidumpError(f"malformed record at token {pos}: {exc}")
                break
        values, indices, _ = _convert(tokens[:pos])
        return values, indices, fault
    values = np.array(values, dtype=float)
    try:
        indices = np.array(indices, dtype=np.int64)
    except OverflowError:
        # such an index is out of range whatever NORB is; the message
        # re-reads it from the tokens
        big = 2 ** 62
        indices = np.array([min(max(t, -big), big) for t in indices], dtype=np.int64)
    return values, indices.reshape(-1, 4), None


def _scatter(keys: np.ndarray, at: np.ndarray, values: np.ndarray, size: int):
    """Last value of each key, over the records at file positions ``at``.

    Returns the file position of the first record whose value differs by
    more than ``_SYM_TOL`` from the previous record of its key (None if
    none), and the array of length ``size`` holding each key's last value
    at that key, 0.0 at keys no record names.
    """
    order = np.argsort(keys, kind="stable")
    keys, at = keys[order], at[order]
    vals = values[at]
    same = keys[1:] == keys[:-1]
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which never clashes
        clash = same & (np.abs(vals[1:] - vals[:-1]) > _SYM_TOL)
    last = np.ones(len(keys), dtype=bool)
    last[:-1] = ~same
    table = np.zeros(size)
    table[keys[last]] = vals[last]
    return (int(at[1:][clash].min()) if clash.any() else None), table


def parse_fcidump(text: str) -> FcidumpData:
    """Parse FCIDUMP text into integral arrays (indices converted to 0-based).

    A faulty file raises the error of its first faulty record in file
    order.  Duplicate records of one orbit must agree to ``_SYM_TOL``; the
    last one gives the value.  Orbital-energy records (``e i 0 0 0``) are
    skipped.
    """
    norb, nelec, ms2, fields, body = _header(text)
    tokens = body.split()
    if len(tokens) % 5 != 0:
        raise FcidumpError("integral records must be 'value i j k l' five-tuples")
    values, idx, malformed = _convert(tokens)
    faults = [] if malformed is None else [(len(values), malformed)]

    outside = ((idx < 0) | (idx > norb)).any(axis=1)
    if outside.any():
        r = int(np.argmax(outside))
        bad = next(t for t in _record(tokens, r)[1:] if t < 0 or t > norb)
        faults.append((r, FcidumpError(f"orbital index {bad} outside [0, {norb}]")))
    zero = idx == 0
    kl_zero = zero[:, 2] & zero[:, 3]
    any_zero = zero.any(axis=1)
    mixed = ~outside & ~kl_zero & any_zero
    if mixed.any():
        r = int(np.argmax(mixed))
        value, i, j, k, l = _record(tokens, r)
        faults.append((r, FcidumpError(f"invalid mixed record {value} {i} {j} {k} {l}")))

    pair, orbit, _ = _orbits(norb)
    core_at = np.flatnonzero(~outside & zero.all(axis=1))
    clash, core = _scatter(np.zeros(len(core_at), dtype=np.int64), core_at, values, 1)
    if clash is not None:
        faults.append((clash, FcidumpError("inconsistent duplicate core energy")))
    one_at = np.flatnonzero(~outside & kl_zero & ~zero[:, 0] & ~zero[:, 1])
    i, j = (idx[one_at, :2] - 1).T
    clash, h = _scatter(pair[i, j], one_at, values, pair.size)
    if clash is not None:
        i, j = _record(tokens, clash)[1:3]
        faults.append((clash, FcidumpError(f"inconsistent duplicate one-electron entry ({i},{j})")))
    two_at = np.flatnonzero(~outside & ~any_zero)
    i, j, k, l = (idx[two_at] - 1).T
    clash, eri = _scatter(orbit[i, j, k, l], two_at, values, orbit.size)
    if clash is not None:
        i, j, k, l = _record(tokens, clash)[1:]
        faults.append((clash, FcidumpError(
            f"inconsistent duplicate two-electron entry ({i},{j},{k},{l})")))
    if faults:
        raise min(faults, key=lambda fault: fault[0])[1]
    return FcidumpData(norb=norb, nelec=nelec, ms2=ms2, h=h[pair], eri=eri[orbit],
                       core=float(core[0]), extras=fields)


def read_fcidump(path) -> FcidumpData:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise FcidumpError(f"not a UTF-8 text file: {exc}") from exc
    return parse_fcidump(text)


def serialize_fcidump(data: FcidumpData) -> str:
    """Emit FCIDUMP text that parses back to the same integrals.

    One record per 8-fold orbit of ``eri`` and per unordered pair of ``h``
    whose magnitude exceeds ``_WRITE_TOL``, in the order i, j <= i, k <= i,
    l <= k, then the core energy.
    """
    n = data.norb
    _, _, first = _orbits(n)
    eri = np.take(data.eri, first)
    keep = np.abs(eri) > _WRITE_TOL
    i, j, k, l = (np.array(np.unravel_index(first[keep], (n,) * 4)) + 1).tolist()
    lines = [f"&FCI NORB={data.norb},NELEC={data.nelec},MS2={data.ms2},", "&END"]
    lines += [f"{v!r} {a} {b} {c} {d}" for v, a, b, c, d in zip(eri[keep].tolist(), i, j, k, l)]
    i, j = np.tril_indices(n)
    h = data.h[i, j]
    keep = np.abs(h) > _WRITE_TOL
    i, j = (np.array([i[keep], j[keep]]) + 1).tolist()
    lines += [f"{v!r} {a} {b} 0 0" for v, a, b in zip(h[keep].tolist(), i, j)]
    lines.append(f"{float(data.core)!r} 0 0 0 0")
    return "\n".join(lines) + "\n"
