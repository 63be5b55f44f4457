"""The byte contract: three small commands write artifact trees whose
digests are pinned here.

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
        "sweep": "05d7d5c9f9b273d7cf121221a7dc403119cbe6f5d6024fc29c518369be1a473c",
        "prune": "15af0618a20b45f8a537eade5636f742f7682bc6468c00a9d8e74b838d7f6c5c",
        "flow-heat": "99cc16661481955aa122ed9bdff3dfabf6d7a5fe5dec6c74acf35c5c0e63d1d5",
        "flow-nonlocal":
            "888dd346b00bd248ba0c9f55abf85f21f5a63326a3c7706b5e1fa2861a843bf9",
        "flow-preln": "c28444ef0d6ce5a4979d79f00c309cc1dd9179a12495ce39a4deae6aa40b7388",
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
