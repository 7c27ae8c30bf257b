import numpy as np
import pytest

from iwatower import AbelianShape, ModulePresentation, Prime, PrecisionContext, SeriesElement


@pytest.fixture(scope="session")
def p3():
    return Prime(3)


@pytest.fixture(scope="session")
def ctx3(p3):
    """Standard one-variable context: p = 3, N = 12, D = 30."""
    return PrecisionContext(p3, 12, 1, 30)


@pytest.fixture(scope="session")
def ctx3_d2(p3):
    return PrecisionContext(p3, 8, 2, 30)


def poly(ctx, coeffs):
    """Univariate element from a dense coefficient list."""
    return SeriesElement.univariate(ctx, coeffs)


def cyclic_module(ctx, coeffs):
    """Lambda_1 / (f) for f given by a dense coefficient list."""
    return ModulePresentation(ctx, 1, ((poly(ctx, coeffs),),))


def split_module(ctx, mu, root_units):
    """Lambda_1 / (p^mu * prod (T - p*a)): its characteristic element is
    coprime to every level element, so tower data is exactly affine:
    log torsion = mu*p^n + lam*n + sum ord_p(p*a)."""
    p = ctx.p.p
    f = SeriesElement.constant(ctx, p ** mu)
    for a in root_units:
        f = f * poly(ctx, [-p * a, 1])
    return ModulePresentation(ctx, 1, ((f,),))


def _valuations(sub, p, N):
    vals = np.full(sub.shape, N, dtype=np.int64)
    t = sub.copy()
    active = t != 0
    cur = 0
    while active.any() and cur < N:
        nondiv = active & (t % p != 0)
        vals[nondiv] = cur
        active &= ~nondiv
        t[active] //= p
        cur += 1
    return vals


def reference_snf(matrix, p, N):
    """Test oracle for `snf`: an independent kernel that pivots on the
    minimal p-valuation of the whole remaining block (first occurrence
    in row-major order) with a full rank-1 update below each pivot."""
    q = p.p
    m = q ** N
    A = np.atleast_2d(np.asarray(matrix, dtype=np.int64)) % m
    if A.size == 0:
        ncols = A.shape[1] if A.ndim == 2 else 0
        return AbelianShape((), ncols, N)
    rows, cols = A.shape
    exps = []
    r = 0
    top = min(rows, cols)
    while r < top:
        sub = A[r:, r:]
        vals = _valuations(sub, q, N)
        e = int(vals.min())
        if e >= N:
            break
        i, j = map(int, np.argwhere(vals == e)[0])
        if i:
            A[[r, r + i], :] = A[[r + i, r], :]
        if j:
            A[:, [r, r + j]] = A[:, [r + j, r]]
        pe = q ** e
        u = int(A[r, r]) // pe
        inv = pow(u, -1, m)
        A[r, r:] = (A[r, r:] * inv) % m
        # entries below the pivot all have valuation >= e, so the
        # canonical representatives are exactly divisible by p^e
        c = A[r + 1:, r] // pe
        A[r + 1:, r:] = (A[r + 1:, r:] - c[:, None] * A[r, r:]) % m
        # column operations clearing row r only touch row r, as the
        # pivot column is now zero below the pivot
        A[r, r + 1:] = 0
        exps.append(e)
        r += 1
    torsion = tuple(sorted(e for e in exps if e >= 1))
    return AbelianShape(torsion, cols - len(exps), N)
