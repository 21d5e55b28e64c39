"""Every input vector and array is checked by one rule, with one wording.

A vector that a class keeps or a function reduces must hold numbers (not
strings, booleans, None or complex numbers, and not ragged rows), be
one-dimensional and finite, and an integer entry past the float range is
refused rather than raising OverflowError. Each refusal is a ValueError
that starts with the vector's name; only the empty vector's message is the
caller's own. The lags and times of the covariance functions follow the
same rule at any shape: a scalar, a vector or a broadcast grid.
"""

import math
import re

import numpy as np
import pytest

from msfou import (
    HurstParam,
    KernelSolution,
    MartingaleDecomposition,
    SamplePath,
    TwoSidedFbm,
    fgn_autocovariance,
    sfbm_covariance,
    summarize,
    two_sided_fbm,
)

H = HurstParam(0.65)
HUGE = 10**400  # 1329 bits, past the float range

# (call with the vector set to v, the vector's name, the message for an empty v)
VECTORS = {
    "SamplePath-values": (lambda v: SamplePath(d=0.1, values=v), "values",
                          "values must hold at least one point"),
    # pos is checked before neg, so a bad value in both names pos
    "TwoSidedFbm-pos": (lambda v: TwoSidedFbm(pos=v, neg=v, d=0.1), "pos",
                        "pos and neg must hold at least one point"),
    "TwoSidedFbm-neg": (lambda v: TwoSidedFbm(pos=[1.0, 2.0], neg=v, d=0.1), "neg",
                        "pos, neg must share a length"),
    "summarize": (summarize, "sample", "cannot summarize an empty sample"),
    "two_sided_fbm": (lambda v: two_sided_fbm(v, 0.1, H), "fgn2n",
                      "fgn2n must be a 1-d vector of even length >= 2"),
    "KernelSolution-mesh": (
        lambda v: KernelSolution(t=1.0, h=HurstParam(0.6), mesh=v, g_values=v, g_diag=v,
                                 bracket_M=v, residual=0.0),
        "mesh", "mesh must be nonempty"),
    "MartingaleDecomposition-mesh": (
        lambda v: MartingaleDecomposition(mesh=v, Z=v, Q=v, bracket_M=v),
        "mesh", "mesh must be strictly increasing from t_0 = 0"),
}
BAD = {
    "matrix": ([[1.0, 2.0], [3.0, 4.0]], "must be one-dimensional"),
    "row": ([[1.0, 2.0, 3.0]], "must be one-dimensional"),
    "scalar": (1.0, "must be one-dimensional"),
    "nan": ([0.0, math.nan], "contains non-finite entries"),
    "inf": ([0.0, math.inf], "contains non-finite entries"),
    "huge": ([0, HUGE], "contains an integer past the float range"),
    "string": (["1.0", "2.0"], "must hold numbers"),
    "boolean": ([True, False], "must hold numbers"),
    # np.asarray would read these booleans as the numbers 1.0 and 1
    "boolean-among-floats": ([1.0, True], "must hold numbers"),
    "boolean-among-integers": ([1, True], "must hold numbers"),
    "numpy-boolean-among-floats": ([1.0, np.True_], "must hold numbers"),
    "complex": ([1.0 + 1.0j, 2.0], "must hold numbers"),
    "ragged": ([[1.0, 2.0], [3.0]], "must hold numbers"),
    "none": ([None, 1.0], "must hold numbers"),
    "mixed": ([2**70, "1"], "must hold numbers"),
}

# "<case>-<value>": (call, value, message)
ROWS = {
    **{
        f"{case}-{label}": (call, value, f"{name} {message}")
        for case, (call, name, _) in VECTORS.items()
        for label, (value, message) in BAD.items()
    },
    **{f"{case}-empty": (call, [], empty) for case, (call, _, empty) in VECTORS.items()},
    "TwoSidedFbm-lengths": (lambda v: TwoSidedFbm(pos=v, neg=[1.0], d=0.1), [1.0, 2.0],
                            "pos, neg must share a length"),
}

# (call with the array set to v, the array's name); the other time is a
# vector of 3, so a column of 2 broadcasts to a 2 x 3 grid
ARRAYS = {
    "fgn_autocovariance-k": (lambda v: fgn_autocovariance(v, H), "k"),
    "sfbm_covariance-s": (lambda v: sfbm_covariance(v, np.array([1.0, 2.0, 3.0]), H), "s"),
    "sfbm_covariance-t": (lambda v: sfbm_covariance(np.array([1.0, 2.0, 3.0]), v, H), "t"),
}
# (bad entry, message); each is tried as a scalar, a vector of it and a column
BAD_ENTRIES = {
    "nan": (math.nan, "contains non-finite entries"),
    "inf": (-math.inf, "contains non-finite entries"),
    "huge": (HUGE, "contains an integer past the float range"),
    "string": ("1.0", "must hold numbers"),
    "boolean": (True, "must hold numbers"),
    "complex": (1.0 + 2.0j, "must hold numbers"),
    "none": (None, "must hold numbers"),
}
SHAPES = {"scalar": lambda e: e, "vector": lambda e: [e, e, e], "column": lambda e: [[e], [e]]}
ROWS.update({
    f"{case}-{shape}-{label}": (call, form(value), f"{name} {message}")
    for case, (call, name) in ARRAYS.items()
    for shape, form in SHAPES.items()
    for label, (value, message) in BAD_ENTRIES.items()
})
ROWS.update({
    f"{case}-{shape}-boolean-among-floats": (call, value, f"{name} must hold numbers")
    for case, (call, name) in ARRAYS.items()
    for shape, value in (("vector", [1.0, True, 2.0]), ("column", [[1.0], [True]]))
})


@pytest.mark.parametrize("call,value,message", ROWS.values(), ids=ROWS.keys())
def test_bad_vector_refused_by_name(call, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


# the vector a class keeps, built from v
KEPT = {
    "SamplePath-values": lambda v: SamplePath(d=0.1, values=v).values,
    "TwoSidedFbm-pos": lambda v: TwoSidedFbm(pos=v, neg=[3.0, 4.0], d=0.1).pos,
    "TwoSidedFbm-neg": lambda v: TwoSidedFbm(pos=[3.0, 4.0], neg=v, d=0.1).neg,
}


@pytest.mark.parametrize("keep", KEPT.values(), ids=KEPT.keys())
def test_kept_vector_is_a_read_only_float_copy(keep):
    given = np.array([1, 2])
    kept = keep(given)
    given[0] = 9
    assert kept.dtype == float and list(kept) == [1.0, 2.0]
    with pytest.raises(ValueError, match="read-only"):
        kept[0] = 9.0
