"""Names that no program path reached are retired and stay retired.

A reach audit (``benchmarks/reach_audit.py``) found these called by tests
and examples only.  The ``mixture`` workload kind went with
``MixtureWorkload``: a plan document that names it is refused when it
loads, and ``repro run`` turns that into a clean exit 2.
"""

from __future__ import annotations

import importlib
import json

import pytest

from repro.cli import main
from repro.exceptions import WorkloadError
from repro.plans import loads
from repro.workloads.spec import registered_kinds

RETIRED = [
    "repro.analysis.complexity_map:compressed_size",
    "repro.analysis.working_set:mru_placement",
    "repro.core.pushdown:relocate_element",
    "repro.experiments.plotting:bar_chart",
    "repro.experiments.plotting:line_chart",
    "repro.experiments.sweep_series:sequence_entropies",
    "repro.network.traffic:TrafficSpec.workload_of",
    "repro.sim.metrics:moving_average",
    "repro.workloads.composite:MixtureWorkload",
    "repro.workloads.corpus:synthetic_corpus_workloads",
    "repro.workloads.zipf:ZipfWorkload.probability_of_rank",
]

#: A trial plan on the retired kind, as an older document would carry it.
MIXTURE_DOCUMENT = {
    "plan": "trial",
    "name": "old-mixture",
    "n_nodes": 7,
    "algorithms": [{"name": "rotor-push", "params": {}}],
    "config": {"n_requests": 10, "n_trials": 1},
    "workload": {
        "kind": "mixture",
        "seed": None,
        "params": {
            "n_elements": 7,
            "components": [{"kind": "uniform", "params": {"n_elements": 7}, "seed": 1}],
            "weights": [1.0],
        },
    },
}


@pytest.mark.parametrize("target", RETIRED)
def test_retired_name_is_gone(target):
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = qualname.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    assert not hasattr(owner, name)


def test_a_plan_naming_the_mixture_kind_is_refused():
    assert "mixture" not in registered_kinds()
    with pytest.raises(WorkloadError, match="unknown workload kind 'mixture'"):
        loads(json.dumps(MIXTURE_DOCUMENT))


def test_repro_run_refuses_a_mixture_document_cleanly(tmp_path, capsys):
    path = tmp_path / "old-mixture.json"
    path.write_text(json.dumps(MIXTURE_DOCUMENT))
    assert main(["run", str(path)]) == 2
    assert "unknown workload kind 'mixture'" in capsys.readouterr().err
