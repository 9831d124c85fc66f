"""`core` alone reads the numbers a caller passes in.

Every public entry that takes a caller's array reads it with
`core.as_points` or `core.number_array`, so a string, a bool, a complex
value, NaN and ±inf are one `ValidationError` with core's text wherever
they arrive, on both size branches of a per-point stage. Scalar arguments
pass `core.is_int` or `core.is_number`. A static check keeps other
modules from converting their own parameters with `dtype=float`.
"""
import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from sparsetrack.association import JpdaParams, gate, hungarian
from sparsetrack.core import ValidationError, as_points
from sparsetrack.detector import (_SCALAR_MAX, DetectorConfig,
                                  TemporalHistory, adaptive_epsilon, dbscan,
                                  estimate_centroid, voxel_downsample)
from sparsetrack.filter import (FilterConfig, IMMState, imm_correct_pda,
                                imm_init)

ROOT = Path(__file__).resolve().parents[1]

BAD = ["1", True, 1j, math.nan, math.inf, -math.inf]


def given_forms(rows: list, bad):
    """`rows` (nested lists) with `bad` in them, as the list a caller might
    pass, and as an ndarray too where numpy keeps `bad` as it is."""
    forms = [rows]
    if isinstance(bad, (float, complex)):
        forms.append(np.array(rows))
    return forms


def points(n: int, bad) -> list:
    """n distinct points as lists, the last one's y replaced by `bad`."""
    rows = [[float(i), 0.5 * i, 1.0] for i in range(n)]
    rows[-1][1] = bad
    return rows


# each stage that reads points, called on a point set
POINT_STAGES = {
    "voxel_downsample": lambda p: voxel_downsample(p, 0.5),
    "dbscan": lambda p: dbscan(p, 0.5, 1),
    "estimate_centroid": lambda p: estimate_centroid(p, [1] * len(p)),
    "TemporalHistory.push": lambda p: TemporalHistory(4).push(p, 0.0),
    "TemporalHistory.nearest": lambda p: TemporalHistory(4).nearest(p),
    "gate": lambda p: gate(np.zeros((1, 3)), np.eye(3)[None], p,
                           JpdaParams()),
}


@pytest.mark.parametrize("n", [1, _SCALAR_MAX, _SCALAR_MAX + 1])
@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("stage", POINT_STAGES)
def test_point_stages_reject_bad_numbers(stage, bad, n):
    for given in given_forms(points(n, bad), bad):
        with pytest.raises(ValidationError,
                           match="^points must hold finite numbers, got "):
            POINT_STAGES[stage](given)


# a valid one-track, three-model bank
BANK = {"x": np.zeros((1, 3, 6)).tolist(),
        "P": np.tile(np.eye(6), (1, 3, 1, 1)).tolist(),
        "mu": [[1 / 3] * 3]}


def _pda(beta):
    cfg = FilterConfig()
    return imm_correct_pda(imm_init([[0.0, 0.0, 0.0]], cfg),
                           [[0.1, 0.0, 0.0]], beta, cfg)


# (name core gives the array, a valid array as nested lists, the entry)
ARRAYS = {
    "hungarian": ("cost", [[0.0, 1.0], [1.0, 0.0]], hungarian),
    **{f"IMMState {k}": (k, v, lambda a, k=k: IMMState(**{**BANK, k: a}))
       for k, v in BANK.items()},
    "imm_correct_pda beta": ("beta", [[0.5, 0.5]], _pda),
}


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("entry", ARRAYS)
def test_array_entries_reject_bad_numbers(entry, bad):
    name, valid, call = ARRAYS[entry]
    call(valid)  # the array as given is accepted
    rows = np.array(valid).tolist()
    cell = rows
    while isinstance(cell[-1], list):
        cell = cell[-1]
    cell[-1] = bad
    for given in given_forms(rows, bad):
        with pytest.raises(ValidationError,
                           match=f"^{name} must hold finite numbers, got "):
            call(given)


# Finite elements are counted, not summed: a sum overflows on the first
# set, is inf - inf = NaN on the second, and warns on both.
@pytest.mark.parametrize("strict", ["warnings", "errstate"])
@pytest.mark.parametrize("form", [list, np.array], ids=["list", "ndarray"])
def test_finiteness_check_raises_no_float_warning(form, strict):
    with warnings.catch_warnings(), np.errstate(
            all="raise" if strict == "errstate" else None):
        if strict == "warnings":
            warnings.simplefilter("error")
        big = [[1e308, 1e308, 1e308]]
        assert as_points(form(big)).tolist() == big
        with pytest.raises(ValidationError,
                           match="^points must hold finite numbers, got "):
            as_points(form([[math.inf, -math.inf, 0.0]]))


PTS = np.array([[0.0, 0.0, 1.0], [0.3, 0.0, 1.0]])

# scalar arguments that core's predicates reject; each was once accepted,
# or raised something other than a ValidationError
SCALARS = {
    "TemporalHistory K=2.5": lambda: TemporalHistory(2.5),
    "TemporalHistory K='3'": lambda: TemporalHistory("3"),
    "TemporalHistory K=True": lambda: TemporalHistory(True),
    "dbscan min_pts=1.5": lambda: dbscan(PTS, 0.5, 1.5),
    "dbscan min_pts=True": lambda: dbscan(PTS, 0.5, True),
    "dbscan eps=True": lambda: dbscan(PTS, True, 1),
    "voxel_downsample v=True": lambda: voxel_downsample(PTS, True),
    "adaptive_epsilon r=nan": lambda: adaptive_epsilon(math.nan,
                                                       DetectorConfig()),
}


@pytest.mark.parametrize("case", SCALARS)
def test_scalar_arguments_read_with_core_predicates(case):
    with pytest.raises(ValidationError):
        SCALARS[case]()


# (module, function, parameter) -> why it may convert that parameter itself
OWN_CONVERSIONS = {
    ("association", "gate", "z_pred"):
        "the tracker's predictions: a singular or non-finite S is an "
        "infeasible row with a note, not an error",
    ("association", "gate", "S"):
        "the tracker's predictions: a singular or non-finite S is an "
        "infeasible row with a note, not an error",
    **{("association", "build_cost", p): "a NaN anchor means no anchor"
       for p in ("detections", "anchor", "anchor_t", "velocity")},
}


def own_conversions(func: ast.FunctionDef) -> set[str]:
    """Parameters of `func` that it passes to np.asarray or np.array with
    dtype=float, directly or as a comprehension's variable over a tuple of
    them."""
    params = {a.arg for a in (*func.args.posonlyargs, *func.args.args,
                              *func.args.kwonlyargs)}
    # a comprehension variable over a literal tuple stands for its names
    stands_for = {}
    for node in ast.walk(func):
        if isinstance(node, ast.comprehension) \
                and isinstance(node.target, ast.Name) \
                and isinstance(node.iter, (ast.Tuple, ast.List)):
            stands_for[node.target.id] = [e.id for e in node.iter.elts
                                          if isinstance(e, ast.Name)]
    found = set()
    for node in ast.walk(func):
        if not (isinstance(node, ast.Call) and node.args
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("asarray", "array")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "np"
                and isinstance(node.args[0], ast.Name)
                and any(k.arg == "dtype" and isinstance(k.value, ast.Name)
                        and k.value.id == "float" for k in node.keywords)):
            continue
        name = node.args[0].id
        found.update(p for p in stands_for.get(name, [name]) if p in params)
    return found


def test_only_core_converts_a_callers_numbers():
    found = {}
    for path in sorted(ROOT.glob("src/sparsetrack/*.py")):
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for p in own_conversions(node):
                    found[(path.stem, node.name, p)] = \
                        OWN_CONVERSIONS.get((path.stem, node.name, p))
    # every conversion is a listed exception, and every exception is used
    assert found == OWN_CONVERSIONS
