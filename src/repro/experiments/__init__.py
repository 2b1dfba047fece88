"""Experiment harness: one module per figure/table of the paper's evaluation.

Every module exposes a ``run(...)`` function that returns a structured result
object and a ``main()`` entry point that prints the same rows/series the paper
reports.  The benchmark suite (``benchmarks/``) wraps these functions so
``pytest benchmarks/ --benchmark-only`` regenerates every figure, and
``scripts/run_all_experiments.py`` writes each full-size report to
``results/<name>.txt``.

====================  ==========================================================
Module                Reproduces
====================  ==========================================================
``fig1_phases``       Figure 1: hardware -> accuracy scaling phases and capacity
``fig3_tradeoff``     Figure 3: EfficientNet accuracy/throughput trade-off
``fig5_traffic``      Figure 5: end-to-end comparison, traffic-analysis pipeline
``fig6_social``       Figure 6: end-to-end comparison, social-media pipeline
``fig7_ablation``     Figure 7: load-balancer early-dropping ablation
``fig8_slo_sweep``    Figure 8: sensitivity to the latency SLO
``validation``        Section 6.2: simulator-vs-analytic validation
``runtime_overhead``  Section 6.5: Resource Manager / Load Balancer runtimes
====================  ==========================================================
"""

from repro.experiments import common

__all__ = ["common"]
