"""scripts/bench_pair.py's scaling probe: its lines run, and its plateau, dense
and matrix-fibre inputs are the golden corpus's where their sizes meet."""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import _larger

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

TINY = {"table": (2, 3), "plateau": ((3, 12), (4, 50)), "dense": (3,), "matrix": (2, 3)}


def probe_lines(dest: Path, sizes: dict) -> dict[str, list[str]]:
    """bench_pair.probe_lines(dest, sizes), in a fresh interpreter: the script
    puts bench/ on sys.path and loads bench/run.py."""
    code = ("import json, sys\nfrom pathlib import Path\n"
            f"sys.path.insert(0, {str(ROOT / 'scripts')!r})\nimport bench_pair\n"
            f"print(json.dumps(bench_pair.probe_lines(Path({str(dest)!r}), {sizes!r})))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out)


def test_every_probe_line_exits_0_at_a_tiny_size(tmp_path):
    lines = probe_lines(tmp_path, TINY)
    assert len(lines) == 5 * 2 + 2 + 1 + 2
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name, argv in lines.items():
        proc = subprocess.run([sys.executable, "-m", "borelcurve.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, (name, proc.stderr)
        assert json.loads(proc.stdout)["command"] == argv[0], name


def test_probe_inputs_are_the_corpus_inputs(tmp_path):
    """The P^32 m = 12 plateau job and the dense job on P^40 read the bytes that
    tests/test_golden.py writes for its larger cases."""
    probe, corpus = tmp_path / "probe", tmp_path / "corpus"
    probe.mkdir()
    lines = probe_lines(probe, {"plateau": ((32, 12),), "dense": (40,)})
    cases = _larger(corpus)

    def read(argv):
        return [Path(a).read_bytes() if a.endswith(".json") else a for a in argv]

    assert read(lines["plateau P^32 m=12"]) == read(cases["larger/chern_plateau_p32_m12"])
    assert read(lines["principal dense P^40"]) == read(cases["larger/principal_dense_p40"])
