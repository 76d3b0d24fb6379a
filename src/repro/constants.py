"""Constants shared across layers, in a module that imports nothing.

The live serve engine (:mod:`repro.serve.engine`) and the replay builder
read the executor's seed stride and table columns here without loading the
plan layer (:mod:`repro.plans`) and everything behind it; the command line
reads the store's default directory without loading the store.
"""

__all__ = ["DEFAULT_CACHE_DIR", "NETWORK_TRIAL_SEED_STRIDE", "REPLAY_TABLE_COLUMNS"]

#: Directory of the checkpoint store when none is named, relative to the
#: working directory (:class:`repro.resilience.store.ResultStore`,
#: ``repro cache``).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Trial stride of the network base seed shipped in network payloads.
#: :func:`~repro.network.multi_source.source_tree` derives per-source
#: seeds as ``base + source`` (placement) and ``base + 100_000 + source``
#: (algorithm), so consecutive trials must be spaced further apart than the
#: largest such offset or trial ``i``'s source ``s + 1`` would reuse trial
#: ``i + 1``'s source-``s`` randomness and the "independent" trials would
#: correlate.  One million clears the offsets of any realistic tree
#: (``100_000 + n_nodes`` with ``n_nodes`` up to ~900k).  The live engine
#: spaces its sources' seed windows by the same stride.
NETWORK_TRIAL_SEED_STRIDE = 1_000_000

#: Columns of the per-source cost table shared by the live serve engine
#: (:meth:`repro.serve.engine.ServeEngine.cost_table`) and the
#: ``replay_totals`` assembler of the executor.  Totals are exact integers
#: (never per-request means), so the live table and its replay compare
#: bit-for-bit.
REPLAY_TABLE_COLUMNS = [
    "source",
    "n_requests",
    "total_access_cost",
    "total_adjustment_cost",
    "total_cost",
]
