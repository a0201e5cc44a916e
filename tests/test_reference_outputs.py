"""Outputs pinned in reference_outputs.json, recomputed and compared.

make_reference_outputs.py says what is pinned and how to regenerate the
file.  Integers and flags compare exactly.  Floats compare relatively, to
tolerances set from the spread measured against the file, which was written
at OPENBLAS_NUM_THREADS=1 on an AVX-512 host:

- at 2 BLAS threads: sweep values 8.1e-15, theta 0, a record's loss 4.9e-14;
- under OpenBLAS's Haswell and Sandybridge kernels, and with numpy's AVX-512
  loops switched off too: sweep values 1.6e-14 (err(0.01) at 2 blocks),
  theta 7.7e-15 (by norm), a record's loss 2.1e-11 (a least-squares loss
  at its noise floor, where the residual cancels).

No integer or flag moved in any of them.
"""

import json

import numpy as np
import pytest

from make_reference_outputs import PATH, SECTIONS

RTOL = 1e-12  # sweep values, and theta by norm
RECORD_RTOL = 1e-9  # each record's loss and metric


def mismatches(ref, got, path):
    """Where got differs from ref beyond the tolerances, as readable lines."""
    if isinstance(ref, dict):
        if ref.keys() != got.keys():
            return [f"{path}: keys {sorted(ref)} != {sorted(got)}"]
        return [m for k in ref for m in mismatches(ref[k], got[k], f"{path}/{k}")]
    if isinstance(ref, (bool, int)):
        return [] if type(ref) is type(got) and ref == got else [f"{path}: {got!r} != {ref!r}"]
    ref, got = np.asarray(ref, dtype=float), np.asarray(got, dtype=float)
    if ref.shape != got.shape:
        return [f"{path}: shape {got.shape} != {ref.shape}"]
    if path.endswith("theta"):
        dev = np.linalg.norm(got - ref) / np.linalg.norm(ref)
        return [] if dev <= RTOL else [f"{path}: off by {dev:.2e} relative, by norm"]
    rtol = RECORD_RTOL if path.endswith(("loss", "metric")) else RTOL
    same = np.isclose(got, ref, rtol=rtol, atol=0.0, equal_nan=True)
    return [f"{path}[{i}]: {got.flat[i]!r} != {ref.flat[i]!r}"
            for i in np.flatnonzero(~same)]


@pytest.fixture(scope="module")
def reference():
    return json.loads(PATH.read_text())


def test_every_section_is_pinned(reference):
    assert reference.keys() == SECTIONS.keys()


@pytest.mark.parametrize("section", SECTIONS)
def test_outputs_match_reference(reference, section):
    # The round trip the reference took: numpy floats become floats, exactly.
    got = json.loads(json.dumps(SECTIONS[section]()))
    bad = mismatches(reference[section], got, section)
    assert not bad, f"{len(bad)} values moved:\n" + "\n".join(bad[:20])
