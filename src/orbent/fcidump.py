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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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


def _eightfold(i, j, k, l):
    return {(i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
            (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i)}


def parse_fcidump(text: str) -> FcidumpData:
    """Parse FCIDUMP text into integral arrays (indices converted to 0-based)."""
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

    h = np.zeros((norb, norb))
    eri = np.zeros((norb,) * 4)
    h_set = np.zeros((norb, norb), dtype=bool)
    eri_set = np.zeros((norb,) * 4, dtype=bool)
    core = 0.0

    tokens = body.split()
    if len(tokens) % 5 != 0:
        raise FcidumpError("integral records must be 'value i j k l' five-tuples")
    for pos in range(0, len(tokens), 5):
        try:
            value = float(tokens[pos])
            i, j, k, l = (int(t) for t in tokens[pos + 1:pos + 5])
        except ValueError as exc:
            raise FcidumpError(f"malformed record at token {pos}: {exc}") from exc
        for idx in (i, j, k, l):
            if idx < 0 or idx > norb:
                raise FcidumpError(f"orbital index {idx} outside [0, {norb}]")
        if i == j == k == l == 0:
            core = value
        elif k == l == 0:
            if i == 0 or j == 0:
                continue  # orbital-energy records carry no Hamiltonian data
            for a, b in ((i - 1, j - 1), (j - 1, i - 1)):
                if h_set[a, b] and abs(h[a, b] - value) > _SYM_TOL:
                    raise FcidumpError(
                        f"inconsistent duplicate one-electron entry ({i},{j})")
                h[a, b] = value
                h_set[a, b] = True
        else:
            if 0 in (i, j, k, l):
                raise FcidumpError(f"invalid mixed record {value} {i} {j} {k} {l}")
            for idx in _eightfold(i - 1, j - 1, k - 1, l - 1):
                if eri_set[idx] and abs(eri[idx] - value) > _SYM_TOL:
                    raise FcidumpError(
                        f"inconsistent duplicate two-electron entry ({i},{j},{k},{l})")
                eri[idx] = value
                eri_set[idx] = True
    return FcidumpData(norb=norb, nelec=nelec, ms2=ms2, h=h, eri=eri, core=core,
                       extras=fields)


def read_fcidump(path) -> FcidumpData:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise FcidumpError(f"not a UTF-8 text file: {exc}") from exc
    return parse_fcidump(text)


def serialize_fcidump(data: FcidumpData) -> str:
    """Emit FCIDUMP text that parses back to the same integrals."""
    lines = [f"&FCI NORB={data.norb},NELEC={data.nelec},MS2={data.ms2},", "&END"]
    n = data.norb
    written = np.zeros((n,) * 4, dtype=bool)
    for i in range(n):
        for j in range(i + 1):
            for k in range(i + 1):
                for l in range(k + 1):
                    if written[i, j, k, l]:
                        continue
                    value = float(data.eri[i, j, k, l])
                    for idx in _eightfold(i, j, k, l):
                        written[idx] = True
                    if abs(value) > _WRITE_TOL:
                        lines.append(f"{value!r} {i + 1} {j + 1} {k + 1} {l + 1}")
    for i in range(n):
        for j in range(i + 1):
            if abs(data.h[i, j]) > _WRITE_TOL:
                lines.append(f"{float(data.h[i, j])!r} {i + 1} {j + 1} 0 0")
    lines.append(f"{float(data.core)!r} 0 0 0 0")
    return "\n".join(lines) + "\n"
