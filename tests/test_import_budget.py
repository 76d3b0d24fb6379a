"""What a fresh process imports, and that lazy packages stay complete.

``import repro`` and the package ``__init__`` modules resolve their public
names on first access, so each process imports only what it runs.  These
tests start fresh interpreters (an import made by another test would hide
an eager one) and pin:

* ``import repro`` loads no other ``repro`` module;
* the serve client and the engine module (which load generators import for
  ``ServeError``) load neither the plan layer, the pool, the dist payload
  codecs nor the HTTP stack;
* a process that only reads plan documents loads neither the pool nor the
  dist payload codecs;
* every public name resolves to its defining module's object and is listed
  by ``dir()``;
* the workload and assembler registries are complete in a process that
  imports only :mod:`repro.plans`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.workloads.spec import WorkloadSpec
from repro.workloads.trace_io import load_trace_workload, save_trace

SRC = str(Path(__file__).resolve().parent.parent / "src")

LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.dist",
    "repro.experiments",
    "repro.network",
    "repro.plans",
    "repro.resilience",
    "repro.serve",
    "repro.sim",
    "repro.telemetry",
)

#: Modules the serve client path must not load.
SERVE_CLIENT_EXCLUDED = (
    "repro.plans",
    "repro.sim.parallel",
    "repro.dist.protocol",
    "multiprocessing",
    "concurrent.futures.process",
    "http.server",
    "urllib.request",
)

#: Modules a process that only reads plan documents must not load: the
#: run config checks its fan-out knobs through :mod:`repro.fanout`.
PLAN_DOCUMENT_EXCLUDED = (
    "repro.sim.parallel",
    "repro.dist.protocol",
    "multiprocessing",
    "concurrent.futures.process",
)


def run_fresh(script: str, *args: str) -> str:
    """Run ``script`` in a fresh interpreter with ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    completed = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_import_repro_loads_only_the_package():
    loaded = run_fresh(
        "import sys, repro; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    assert loaded.strip() == "['repro']"


def test_the_serve_client_path_stays_light():
    loaded = json.loads(
        run_fresh(
            "import json, sys; import repro.serve.client, repro.serve.engine; "
            "print(json.dumps(sorted(sys.modules)))"
        )
    )
    assert [name for name in SERVE_CLIENT_EXCLUDED if name in loaded] == []
    assert "repro.serve.client" in loaded


def test_reading_plan_documents_loads_no_executor():
    loaded = json.loads(
        run_fresh(
            "import json, sys; from repro.plans.io import golden_plan_names; "
            "golden_plan_names(); print(json.dumps(sorted(sys.modules)))"
        )
    )
    assert [name for name in PLAN_DOCUMENT_EXCLUDED if name in loaded] == []
    assert "repro.plans.model" in loaded


def test_every_public_name_resolves_to_its_defining_module():
    report = json.loads(
        run_fresh(
            """
import importlib, inspect, json, sys
problems = []
for package_name in sys.argv[1:]:
    package = importlib.import_module(package_name)
    listed = dir(package)
    exported = set()
    for module_name, names in package._EXPORTS.items():
        for name in names:
            exported.add(name)
            value = getattr(package, name)
            module = importlib.import_module(module_name)
            if module_name == f"{package_name}.{name}":
                expected = module
            else:
                expected = vars(module)[name]
                if inspect.isclass(value) or inspect.isfunction(value):
                    if value.__module__ != module_name:
                        problems.append(
                            f"{package_name}.{name} is defined in {value.__module__}"
                        )
            if value is not expected:
                problems.append(f"{package_name}.{name} is not {module_name}'s")
            if name not in listed:
                problems.append(f"{package_name}.{name} missing from dir()")
    for name in package.__all__:
        if name not in exported and name not in vars(package):
            problems.append(f"{package_name}.__all__ names unknown {name}")
print(json.dumps(problems))
""",
            *LAZY_PACKAGES,
        )
    )
    assert report == []


def test_registries_are_complete_in_a_process_that_imports_only_plans(tmp_path):
    trace = save_trace(str(tmp_path / "trace.txt"), [1, 2, 3, 1], 7)
    specs = {
        "combined-locality": WorkloadSpec.create(
            "combined-locality", seed=1, n_elements=7, zipf_exponent=1.6,
            repeat_probability=0.4,
        ),
        "corpus": WorkloadSpec.create("corpus", book_seed=2, window=3, n_words=300),
        "fixed-sequence": WorkloadSpec.create(
            "fixed-sequence", n_elements=7, sequence=(1, 2, 3)
        ),
        "markov": WorkloadSpec.create(
            "markov", seed=3, n_elements=7, n_neighbours=2, self_loop=0.3,
            neighbour_probability=0.4,
        ),
        "round_robin_path": WorkloadSpec.create("round_robin_path", depth=3),
        "temporal": WorkloadSpec.create(
            "temporal", seed=7, n_elements=7, repeat_probability=0.5
        ),
        "trace_file": load_trace_workload(str(trace)).to_spec(),
        "uniform": WorkloadSpec.create("uniform", seed=8, n_elements=7),
        "zipf": WorkloadSpec.create("zipf", seed=9, n_elements=7, exponent=1.3),
    }
    documents = json.dumps({kind: spec.to_dict() for kind, spec in specs.items()})
    report = json.loads(
        run_fresh(
            """
import importlib, json, sys
import repro.plans
execute = importlib.import_module("repro.plans.execute")
golden = repro.plans.golden_plan_names()
for name in golden:
    execute.compile_plan(repro.plans.load_golden_plan(name))
spec = sys.modules["repro.workloads.spec"]  # loaded by the plan model
kinds = spec.registered_kinds()
for document in json.loads(sys.argv[1]).values():
    spec.build_workload(spec.WorkloadSpec.from_dict(document)).generate(5)
print(json.dumps({"kinds": kinds, "golden": len(golden)}))
""",
            documents,
        )
    )
    assert report["kinds"] == sorted(specs)
    assert report["golden"] >= 9
