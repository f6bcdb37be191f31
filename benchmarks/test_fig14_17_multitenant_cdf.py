"""E8 -- Figs. 14-17: multi-tenant job-completion-time CDFs.

Runs batches of circuits from the four workload mixes through the full
multi-tenant pipeline with CloudQC, CloudQC-BFS and CloudQC-FIFO and summarises
the JCT distributions.  The paper plots CDFs over 50 batches of 20 circuits
each; the default benchmark uses smaller batches so the harness finishes in a
few minutes (constants below restore paper scale).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from answer_ledger import check_answer
from shape_checks import check_cloudqc_not_worst
from repro.analysis import (
    default_cloud,
    format_cdf_summary,
    multitenant_jct_distribution,
)
from repro.cloud.job import set_job_counter

#: Default (reduced) scale: 1 batch of 6 circuits per workload.
NUM_BATCHES = 1
BATCH_SIZE = 6
#: Paper scale: 50 batches of 20 circuits, each run over 20 topologies.
FULL_NUM_BATCHES = 50
FULL_BATCH_SIZE = 20

#: Workloads of Figs. 14-17.  The mixed and arithmetic workloads include
#: multiplier_n75, whose remote DAG dominates the default-run latency, so the
#: default run covers the qugan and qft workloads plus a reduced mixed
#: workload; the FULL_WORKLOADS list restores all four paper mixes.
DEFAULT_WORKLOADS = ["qugan", "qft"]
FULL_WORKLOADS = ["mixed", "qft", "qugan", "arithmetic"]

METHODS = ["CloudQC", "CloudQC-BFS", "CloudQC-FIFO"]


def jct_distribution(workload):
    """Per-method JCT samples of one workload (cloud seed 7, sim seed 1)."""
    # Network schedulers break ties on job-id strings, so the answer depends
    # on the process-wide job counter; start it where a fresh process does.
    set_job_counter(0)
    return multitenant_jct_distribution(
        workload,
        num_batches=NUM_BATCHES,
        batch_size=BATCH_SIZE,
        seed=1,
        cloud=default_cloud(seed=7),
    )


def paper_facing(distribution):
    """The ledger's answer: every JCT sample and the per-method means."""
    means = {name: float(np.mean(times)) for name, times in distribution.items()}
    return {"jct": distribution, "mean_jct": means}


def answers():
    """This module's paper-answer ledger entries (see answer_ledger)."""

    def answer(workload):
        return paper_facing(jct_distribution(workload))

    return {
        f"fig14-17/{workload}": partial(answer, workload)
        for workload in DEFAULT_WORKLOADS
    }


@pytest.mark.paper_artifact("fig14-17")
@pytest.mark.parametrize("workload", DEFAULT_WORKLOADS)
def test_fig14_17_multitenant_jct_cdf(benchmark, workload):
    distribution = benchmark.pedantic(
        jct_distribution, args=(workload,), rounds=1, iterations=1
    )

    print(f"\nFigs. 14-17 ({workload} workload): JCT distribution summary")
    print(format_cdf_summary(distribution))

    answer = paper_facing(distribution)
    means = answer["mean_jct"]
    assert set(distribution) == set(METHODS)
    for times in distribution.values():
        assert len(times) == NUM_BATCHES * BATCH_SIZE
        assert all(t >= 0 for t in times)
    # Shape: CloudQC's mean JCT is never the worst of the three methods, and on
    # the structured (qft) workload it beats CloudQC-BFS.
    check_cloudqc_not_worst(means, f"fig14-17/{workload} mean JCT")
    if workload == "qft":
        assert means["CloudQC"] <= means["CloudQC-BFS"] * 1.05
    check_answer(f"fig14-17/{workload}", answer)
