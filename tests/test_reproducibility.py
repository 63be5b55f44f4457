"""The byte contract: small commands write artifact trees whose digests
are pinned here: a sweep under each score rule, a prune scan and the
three flows.

Each command runs through ``cli.main`` into a fresh directory, and each
tree is hashed over its relative paths and file bytes. The digests
depend on the floating-point stack, so they are keyed by the numpy and
scipy versions and by OpenBLAS's runtime configuration (version and the
kernel core it picked). On a stack with no recorded digests the test
skips and prints the digests it got.

A change that moves artifact bytes on purpose updates ``DIGESTS`` in the
same commit and says which bytes moved and why.
"""

import ctypes
import glob
import hashlib
import os

import numpy as np
import pytest
import scipy

from graphenergy.cli import main

COMMANDS = {
    "sweep": [
        "sweep", "--kind", "sbm", "--block-sizes", "40,40,40",
        "--block-probs", "0.2,0.02,0.02;0.02,0.2,0.02;0.02,0.02,0.2",
        "--depths", "2,16", "--seeds", "0,1", "--attention", "san",
        "--dump-states",
    ],
    **{
        f"sweep-{rule}": [
            "sweep", "--kind", "sbm", "--block-sizes", "40,40,40",
            "--block-probs", "0.2,0.02,0.02;0.02,0.2,0.02;0.02,0.02,0.2",
            "--depths", "2,16", "--seeds", "0,1", "--attention", rule,
            "--heads", "2", "--dump-states",
        ]
        for rule in ("gat", "gcn")
    },
    "prune": [
        "prune", "--kind", "ring", "--size", "60", "--variant",
        "nonlocal_post_ln", "--depth", "16",
        "--layers", ",".join(str(k) for k in range(1, 17)),
    ],
    **{
        f"flow-{flow}": [
            "flow", "--kind", "ring", "--size", "60", "--flow", flow,
            "--horizon", "4", "--d", "4",
        ]
        for flow in ("heat", "nonlocal", "preln")
    },
}

DIGESTS = {
    "numpy 2.4.6 | scipy 1.17.1 | OpenBLAS 0.3.31.188.0  USE64BITINT "
    "DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64": {
        "sweep": "ea685cddefd7cbeb3af2baa82567b89417907fadc33f5216e2a59f427d4ac36f",
        "sweep-gat":
            "704e1bf5505cdd92a13a846bea06341843d12e329c7ae8039fe1203eac6f906a",
        "sweep-gcn":
            "7b441560614d2aaac03621b17bd3c6f553ca7a9f2b09852e2026f6b766e67ffe",
        "prune": "3d4190bf60442543f6328ef1694cf481b09839288c8abcc16b4e25d62c0d88f1",
        "flow-heat": "e489a6b95255e7430e66c6fbd0565527c725e88758bfe1417fd3ddd1bfc0b8d6",
        "flow-nonlocal":
            "999a014c0d0659b4e7650537c3b9651b665c647b7f9722d8ab833540d5595f46",
        "flow-preln": "5b03d481f532f493b95ecd9b7a28fda83acd5acfa07eec92ea08f18e8f2aad7e",
    },
}


def blas_config() -> str:
    """OpenBLAS's runtime configuration string, or "no OpenBLAS"."""
    libs = os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_config64_", "openblas_get_config64_",
                     "openblas_get_config"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "no OpenBLAS"


def stack_key() -> str:
    return f"numpy {np.__version__} | scipy {scipy.__version__} | {blas_config()}"


def tree_digest(root) -> str:
    """SHA-256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    paths = sorted(
        os.path.relpath(os.path.join(dirpath, name), root)
        for dirpath, _, names in os.walk(root)
        for name in names
    )
    for rel in paths:
        with open(os.path.join(root, rel), "rb") as fh:
            data = fh.read()
        digest.update(rel.encode() + b"\0" + str(len(data)).encode() + b"\0")
        digest.update(data)
    return digest.hexdigest()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    got = {}
    for name, argv in COMMANDS.items():
        out = tmp_path_factory.mktemp(name)
        assert main(argv + ["--out", str(out)]) == 0
        got[name] = tree_digest(out)
    return got


def test_artifact_trees_match_recorded_digests(digests):
    expected = DIGESTS.get(stack_key())
    if not expected:
        pytest.skip(f"no digests recorded for {stack_key()!r}; got {digests}")
    assert digests == expected
