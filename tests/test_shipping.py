"""Off-path shipping invariant: a driver that imports dpr_ray via a
sys.path hack (workers CANNOT ``import dpr_ray``) must still run every
UDF. Guards the four traps fixed in round 2: lru_cache wrappers pickling
by module reference, module objects captured in closures, function-scope
relative imports inside worker fns, and closures pickled before any
ensure_shippable() call. Runs in a subprocess with its own Ray session
from a NON-repo cwd — the in-suite session shares the repo path and
would mask all four."""

import subprocess
import sys
import tempfile

from conftest import REPO_ROOT

DRIVE = """
import sys
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import __ray_entry__ as e
qs = e.queries()
# shipping-sensitive picks: lru-hash users, closure-captured module fns
for name in ("simhash", "fingerprint", "sample_corpus", "token_count"):
    r = qs[name]("/root/testdata/sf0.001")
    n = r.count() if hasattr(r, "count") else len(r)
    assert n > 0, name
print("SHIPPING_OK")
ray.shutdown()
"""


def test_queries_run_from_off_path_cwd():
    with tempfile.TemporaryDirectory() as tmp:
        script = f"{tmp}/drive.py"
        with open(script, "w") as f:
            f.write(DRIVE.format(repo=REPO_ROOT))
        out = subprocess.run(
            [sys.executable, script],
            cwd=tmp,
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert "SHIPPING_OK" in out.stdout, out.stdout + out.stderr
