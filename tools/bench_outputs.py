"""Hash every output file of the benchmark's invocations, run on one tree.

    python3 tools/bench_outputs.py TREE

TREE is a checkout (the directory holding ``src/maglattice``). For seeds
2601-2603 the script builds each invocation of ``bench/workloads.py`` (this
checkout's, imported read-only): passes 0-2 of every workload, pass 0 only
for field-map. It runs ``maglattice.cli.main`` from ``TREE/src`` in this
process, with ``--no-timestamp``, into a temporary directory, and prints
``sha256  name`` for each output file, 78 lines. It then runs each of the
six scripts in ``TREE/demos`` against ``TREE/src`` in a child process, in a
temporary working directory (about 3 s in all), and prints
``sha256  demos/<name>.stdout`` for its standard output: 84 lines in all.
Two trees whose lines are equal wrote the same bytes; a run that exits
non-zero is named on stderr. Nothing is written in either tree.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

SEEDS = (2601, 2602, 2603)
PASSES = {"trap-search": 3, "bias-control": 3, "fano-stats": 3, "field-map": 1}


def main(argv):
    if len(argv) != 1:
        raise SystemExit("usage: bench_outputs.py TREE")
    tree = Path(argv[0]).resolve()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    sys.path.insert(0, str(tree / "src"))
    import workloads

    import maglattice.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(tree):
        raise SystemExit(f"imported maglattice from {cli.__file__}, not from {tree}")
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            rng = workloads.seeded_state(seed)
            for name, passes in PASSES.items():
                for k in range(passes):
                    for i, inv in enumerate(workloads.WORKLOADS[name](rng, k)):
                        tag = f"{seed}/{name}/p{k}-{i}"
                        config = inv.write_inputs(Path(tmp, tag, "in"))
                        out = Path(tmp, tag, "out")
                        argv = ["--config", str(config), "--out", str(out), "--no-timestamp"]
                        rc = cli.main(argv + inv.argv)
                        if rc:
                            print(f"{tag}: exit {rc}", file=sys.stderr)
                        for path in sorted(out.glob("*")):
                            digest = hashlib.sha256(path.read_bytes()).hexdigest()
                            print(f"{digest}  {tag}/{path.name}", flush=True)
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    for demo in sorted((tree / "demos").glob("*.py")):
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run([sys.executable, str(demo)], cwd=tmp, env=env, capture_output=True)
        if proc.returncode:
            print(f"demos/{demo.name}: exit {proc.returncode}", file=sys.stderr)
        digest = hashlib.sha256(proc.stdout).hexdigest()
        print(f"{digest}  demos/{demo.stem}.stdout", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
