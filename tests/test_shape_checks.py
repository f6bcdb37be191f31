"""The paper benchmarks' shape checks can fail.

``benchmarks/shape_checks.py`` holds the "CloudQC is never the worst" check
the Table III and Figs. 6-22 benchmarks share.  Written as
``x["CloudQC"] <= max(x.values())`` with CloudQC inside ``x``, that check
holds for every input.  Here the helper gets recorded ledger rows, and the
same rows mutated so that CloudQC is the worst method.
"""

import importlib.util
import json
import math
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_shape_checks():
    path = ROOT / "benchmarks" / "shape_checks.py"
    spec = importlib.util.spec_from_file_location("shape_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_cloudqc_not_worst = _load_shape_checks().check_cloudqc_not_worst


def _fig22_rows():
    ledger = json.loads((ROOT / "tests" / "golden" / "answers.json").read_text())
    return ledger["artifacts"]["fig22"]["numbers"]


@pytest.mark.parametrize("circuit", sorted(_fig22_rows()))
def test_recorded_fig22_row_passes_and_its_mutation_fails(circuit):
    row = dict(_fig22_rows()[circuit])
    check_cloudqc_not_worst(row, f"fig22/{circuit}")
    row["CloudQC"] = max(row.values()) + 1.0
    # The max-over-every-method form cannot tell the two rows apart.
    assert row["CloudQC"] <= max(row.values())
    with pytest.raises(AssertionError, match=f"fig22/{circuit}: CloudQC"):
        check_cloudqc_not_worst(row, f"fig22/{circuit}")


@pytest.mark.parametrize(
    "values",
    [
        {"CloudQC": 1.0, "Random": 2.0, "SA": 3.0},  # best
        {"CloudQC": 2.0, "Random": 1.0, "SA": 3.0},  # in between
        {"CloudQC": 3.0, "Random": 1.0, "SA": 3.0},  # tied for worst
    ],
)
def test_not_the_strict_worst_passes(values):
    check_cloudqc_not_worst(values, "row")


@pytest.mark.parametrize("cloudqc", [3.5, math.nan])
def test_strict_worst_or_nan_fails(cloudqc):
    with pytest.raises(AssertionError, match="row: CloudQC"):
        check_cloudqc_not_worst({"CloudQC": cloudqc, "Random": 1.0, "SA": 3.0}, "row")
