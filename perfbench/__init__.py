"""Seeded end-to-end and per-layer benchmark of the dpr_ray engine (see
README.md; entry point ``run.py``)."""
