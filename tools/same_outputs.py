"""Check that two trees write byte-identical artifacts on the benchmark's
workloads.

    python tools/same_outputs.py BASE_TREE --seed 1 5 7

BASE_TREE is another checkout of this repository, say the parent commit
unpacked with ``git archive``. For each seed and each workload of
``perfbench/workloads.py``, the script runs the workload's set-up and
command chain with the base tree's package and then with this checkout's,
each command in a fresh ``python -m founderhmm.cli`` process, both times
into the same working directory, so that paths written into outputs
match. It then compares every file the two runs left there byte for
byte and prints one line per file. The exit status is 0 when every file
is identical and both trees wrote the same files, 1 when one differs,
and 1 with the command's error output when a command fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402


def run_tree(src, workload, seed, workdir):
    """Run the set-up and chain with the package under ``src`` in an empty
    ``workdir``; returns {file name: bytes} of what they left."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    files = workloads.Files(workdir)
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (workloads.setup_commands(workload, seed, files)
                 + workloads.run_commands(workload, seed, files)):
        done = subprocess.run([sys.executable, "-m", "founderhmm.cli", *argv],
                              env=env, cwd=workdir, capture_output=True, text=True)
        if done.returncode:
            sys.exit(f"{src}: founderhmm {' '.join(argv)} exited "
                     f"{done.returncode}:\n{done.stderr}")
    out = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="root of the checkout to compare against")
    parser.add_argument("--seed", type=int, nargs="+", default=[1])
    args = parser.parse_args()
    base = os.path.join(os.path.abspath(args.base), "src")
    this = os.path.join(ROOT, "src")
    same = True
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        for seed in args.seed:
            for w in workloads.WORKLOADS.values():
                workdir = os.path.join(tmp, "work")
                want = run_tree(base, w, seed, workdir)
                got = run_tree(this, w, seed, workdir)
                for name in sorted(want.keys() | got.keys()):
                    equal = want.get(name) == got.get(name)
                    same &= equal
                    print(f"{w.name}\tseed {seed}\t{name}\t"
                          f"{'same' if equal else 'DIFFERENT'}", flush=True)
    print("all artifacts identical" if same else "artifacts differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
