"""The repository benchmark: three workloads driven through the public API.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints its metrics; the last line of
standard output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  ``BENCHMARK.json`` at the repository root names the workloads
and metrics, and ``perfbench/README.md`` records which layer each workload
loads and which end-to-end metric each per-layer metric should move.

The benchmark changes nothing in the package: it drives ``SPOT`` and
``DetectionService`` from outside, and the traced run times the package's
public callables by wrapping them from these files (:mod:`perfbench.spans`).
"""
