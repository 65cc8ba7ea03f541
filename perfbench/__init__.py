"""The repository benchmark: workloads, closed-loop driver and from-outside tracer.

Entry point: ``python3 perfbench/run.py`` (see its docstring).
"""
