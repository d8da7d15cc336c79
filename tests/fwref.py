"""Frank-Wolfe on every block of a pinched two-orbital state.

The independent cross-check of the closed-form blocks of
:func:`orbent.entanglement.ree_numeric`: the same split of the pinched
state into pairs of local sectors, with every block that is not a product
state handed to the Frank-Wolfe core, whatever its shape.

A helper module, not a test module: pytest does not collect it, and the
tests import it as ``fwref`` because their directory is on ``sys.path``.
"""

import itertools
import math

import numpy as np

from orbent.channels import gn_local, gpi_local
from orbent.entanglement import EntanglementResult, _local_sectors, _ree_frank_wolfe


def frank_wolfe_pinched(rho, ssr, tol=1e-7, max_iters=5000) -> EntanglementResult:
    """REE of rho pinched by ``ssr`` ("P" or "N"), every block by Frank-Wolfe;
    value and gap are p-weighted sums, iterations a plain sum."""
    work = (gpi_local if ssr == "P" else gn_local)(rho)
    parts = []
    for ia, ib in itertools.product(*(_local_sectors(d, ssr) for d in work.dims)):
        flat = (ia[:, None] * work.dims[1] + ib).ravel()
        block = work.mat[np.ix_(flat, flat)]
        p = float(np.trace(block).real)
        if p > 0.0 and min(len(ia), len(ib)) >= 2:
            parts.append((p, *_ree_frank_wolfe(block / p, tol, max_iters)[:3]))
    gap = math.fsum(p * g for p, _, g, _ in parts)
    return EntanglementResult(
        value=math.fsum(p * v for p, v, _, _ in parts), ssr=ssr, method="numeric-ree",
        iterations=sum(n for *_, n in parts), gap=gap, converged=gap <= tol)
