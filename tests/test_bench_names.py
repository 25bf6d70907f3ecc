"""The benchmark's traced run wraps program names; deleting or renaming one
must fail here rather than in a benchmark run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_tracer_finds_every_wrapped_name():
    code = "from tracer import Tracer, instrument; instrument(Tracer())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
