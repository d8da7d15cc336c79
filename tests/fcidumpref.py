"""Record-by-record FCIDUMP reader and writer, kept as references.

The loops that :func:`orbent.fcidump.parse_fcidump` and
:func:`orbent.fcidump.serialize_fcidump` replaced with whole-array passes.
The reader visits records in file order and raises at the first faulty one;
the writer walks i, j <= i, k <= i, l <= k and writes each orbit of the
8-fold symmetry once, at its first tuple.  The reader carries one rule the
original loop lacked: a core-energy record that differs from the previous
one by more than the symmetry tolerance is rejected, as duplicate one- and
two-electron entries are.

A helper module, not a test module: pytest does not collect it, and the
tests import it as ``fcidumpref`` because their directory is on ``sys.path``.
"""

import numpy as np

from orbent.fcidump import _SYM_TOL, _WRITE_TOL, FcidumpData, FcidumpError, _header


def _eightfold(i, j, k, l):
    return {(i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
            (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i)}


def parse_fcidump(text: str) -> FcidumpData:
    norb, nelec, ms2, fields, body = _header(text)

    h = np.zeros((norb, norb))
    eri = np.zeros((norb,) * 4)
    h_set = np.zeros((norb, norb), dtype=bool)
    eri_set = np.zeros((norb,) * 4, dtype=bool)
    core = None

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
            if core is not None and abs(core - value) > _SYM_TOL:
                raise FcidumpError("inconsistent duplicate core energy")
            core = value
        elif k == l == 0:
            if i == 0 or j == 0:
                continue
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
    return FcidumpData(norb=norb, nelec=nelec, ms2=ms2, h=h, eri=eri,
                       core=0.0 if core is None else core, extras=fields)


def serialize_fcidump(data: FcidumpData) -> str:
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
