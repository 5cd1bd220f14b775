"""The repo's benchmark: four workloads, exact work counts, best-of-k host time.

Entry point: ``python3 bench/run.py`` (see ``bench/README.md``).
"""
