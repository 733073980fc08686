import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hardylab
from hardylab import hardy4, qcore


@pytest.fixture(scope="session")
def cli_env():
    """Environment for a `python -m hardylab.cli` child process.

    PYTHONPATH starts with the directory holding the imported hardylab, since
    pytest's `pythonpath` setting reaches only the test process itself.
    """
    src = str(Path(hardylab.__file__).resolve().parent.parent)
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def hardy_reference(alpha: float) -> SimpleNamespace:
    """The two-qubit Hardy model at `alpha` as a state and ten Projectors, each built alone
    (np.outer, np.kron, @ and np.eye(4) - U1) and validated by qcore: a test-only reference
    for hardy4, which computes the same statistics from three kets and builds no operator.

    The kets are the module docstring's, taken with numpy powers and normalized by
    StateVector.normalize; 1 - U is the projector of its own ket, not 1 minus U."""
    params = hardy4.HardyParams.from_alpha(alpha)
    a, b = params.alpha, params.beta

    def ket_projector(ket, name):
        k = qcore.StateVector.normalize(ket).amplitudes
        return qcore.Projector(np.outer(k, k.conj()), name=name)

    u = ket_projector([np.sqrt(b), np.sqrt(a)], "U")
    d = ket_projector([b ** 1.5, -a ** 1.5], "D")
    eye = np.eye(2)
    u1, u2 = np.kron(u.matrix, eye), np.kron(eye, u.matrix)
    d1, d2 = np.kron(d.matrix, eye), np.kron(eye, d.matrix)
    return SimpleNamespace(
        params=params, psi=qcore.StateVector(np.array([a, 0.0, 0.0, -b], dtype=complex)),
        u_local=u, d_local=d, u_perp_local=ket_projector([np.sqrt(a), -np.sqrt(b)], "1-U"),
        U1=qcore.Projector(u1, "U(x)1"), U2=qcore.Projector(u2, "1(x)U"),
        D1=qcore.Projector(d1, "D(x)1"), D2=qcore.Projector(d2, "1(x)D"),
        U1U2=qcore.Projector(u1 @ u2, "U1U2"), D1D2=qcore.Projector(d1 @ d2, "D1D2"),
        U1_perp=qcore.Projector(np.eye(4) - u1, "1-U(x)1"))


@pytest.fixture(scope="session")
def hardy_projectors():
    """hardy_reference, the ten-Projector construction of the Hardy model."""
    return hardy_reference
