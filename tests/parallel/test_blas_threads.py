"""Chunk-parallel jobs next to a thread inside BLAS.

A worker forked from a process while another of its threads is inside
an OpenBLAS call can leave that thread stuck for good: the serving
executor ran one job's ``np.linalg.eigh`` while another job started its
pool.  The pool's workers now fork from a single-threaded server, so
the BLAS thread must keep making progress.  The check runs in a
subprocess under a hard timeout, with the host's default BLAS threading.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = r"""
import json, sys, threading, time
import numpy as np
from repro.parallel import parallel_pixel_map

if __name__ == "__main__":
    rng = np.random.default_rng(0)
    a = rng.standard_normal((28, 28))
    matrix = a @ a.T
    calls, stop = [0], threading.Event()

    def blas_loop():
        while not stop.is_set():
            np.linalg.eigh(matrix)
            calls[0] += 1

    thread = threading.Thread(target=blas_loop, daemon=True)
    thread.start()
    cube = rng.uniform(0.1, 1.0, size=(16, 12, 8))
    maps, deadline = 0, time.monotonic() + float(sys.argv[1])
    while time.monotonic() < deadline:
        parallel_pixel_map(cube, np.sum, (-1,), n_workers=2)
        maps += 1
    during = calls[0]
    time.sleep(0.2)
    after = calls[0]
    stop.set()
    thread.join(5.0)
    print(json.dumps({"maps": maps, "during": during, "after": after,
                      "stopped": not thread.is_alive()}))
"""


def test_blas_thread_survives_chunk_parallel_jobs(tmp_path):
    script = tmp_path / "blas_threads.py"
    script.write_text(SCRIPT)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OPENBLAS_NUM_THREADS", None)        # the host's default
    done = subprocess.run([sys.executable, str(script), "3"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["maps"] > 0
    assert report["during"] > 0
    assert report["after"] > report["during"]     # still making progress
    assert report["stopped"]
