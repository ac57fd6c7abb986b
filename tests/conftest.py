import pytest


def _mat_vec(M, v):
    """M applied to the vector v (entries normalized into M's ring), as a
    list of ring elements, reduced mod p over F_p."""
    if len(v) != M.cols:
        raise ValueError("dimension mismatch")
    R = M.ring
    v = [R.normalize(x) for x in v]
    out = [sum((a * v[j] for j, a in row), R.zero) for row in M.nz]
    return [s % R.p for s in out] if R.p else out


@pytest.fixture(scope="session")
def mat_vec():
    """The matrix-vector product, for tests that apply a sparse matrix."""
    return _mat_vec
