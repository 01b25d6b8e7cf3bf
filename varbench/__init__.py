"""Benchmark of varsolve: seeded workloads, answer checks and layer tracing."""
