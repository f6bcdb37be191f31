"""Paper-shape checks shared by the paper benchmarks.

A shape check asserts an ordering the paper's figures show, such as "CloudQC
is never the worst method", on a regenerated answer.  Each check is a
function, so ``tests/test_shape_checks.py`` can feed it a mutated answer and
see it fail.
"""

from __future__ import annotations

from typing import Mapping


def check_cloudqc_not_worst(values: Mapping[str, float], where: str) -> None:
    """Fail when CloudQC's value exceeds that of every other method.

    ``values`` maps method names to a lower-is-better number (remote
    operations, communication cost, mean JCT).  CloudQC is compared with the
    other methods only: a maximum taken over a dict that holds CloudQC's own
    value could never fail.  A NaN for CloudQC fails too.
    """
    others = {name: value for name, value in values.items() if name != "CloudQC"}
    if not values["CloudQC"] <= max(others.values()):
        raise AssertionError(
            f"{where}: CloudQC ({values['CloudQC']!r}) is worse than every "
            f"other method {others}"
        )
