"""End-to-end benchmark of the TCP scan path (``python3 servebench/run.py``).

See ``servebench/METRICS.md`` for the workloads, every metric, its unit
and layer, and how host-speed normalisation works.
"""
