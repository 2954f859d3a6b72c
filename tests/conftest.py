import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run: per-test init/shutdown
    thrashes the raylet.

    ``PYTHONPATH`` points at the repo only while ``ray.init`` starts the
    raylet, which keeps it for the workers it spawns; the previous value
    is restored at once, so subprocesses that the tests start (the
    benchmark's own smoke tests among them) see the caller's
    environment."""
    prev = os.environ.get("PYTHONPATH")
    os.environ.setdefault("PYTHONPATH", REPO_ROOT)
    import ray

    try:
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    finally:
        if prev is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = prev
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()
