"""Paper-workload benchmark for the Loki reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload in fresh child processes, checks the simulated outputs and
prints one JSON result line.  See ``BENCHMARK.json`` at the repository root
for the workloads and metrics, and ``perfbench/predictions.json`` for which
end-to-end metric each per-layer metric should move.
"""
