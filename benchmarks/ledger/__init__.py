"""The perf ledger: one harness, four named workloads, every metric by name.

Run it as ``python3 benchmarks/ledger/__main__.py --workload <name> --seed
<int> --seconds <int> --trace <0|1>`` (the ``BENCHMARK.json`` command) or
``PYTHONPATH=src python -m benchmarks.ledger ...``; see ``README.md`` in
this directory for the workload rationale and the layer-metric →
end-to-end-metric → workload table every later performance PR cites.
"""
