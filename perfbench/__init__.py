"""Seeded end-to-end benchmark of the simulator, with a traced per-layer run.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload; see ``perfbench/README.md``.
"""
