"""Check that two trees write byte-identical artifacts on the benchmark's
workloads.

    python tools/same_outputs.py BASE_TREE --seed 1 5 7

BASE_TREE is another checkout of this repository, say the parent commit
unpacked with ``git archive``. For each seed and each workload of
``perfbench/workloads.py``, the script runs the workload's set-up and
command chain with the base tree's package and then with this checkout's,
each command in a fresh ``python -m founderhmm.cli`` process, both times
into the same working directory, so that paths written into outputs
match. After the chain it runs the writers that the chain does not (see
``extra_commands``): JSON reports and their reading back, recovery fill
logs, evaluation reports and a tiny sweep table. It then compares every
file the two runs left there byte for byte and prints one line per file.
The exit status is 0 when every file is identical and both trees wrote
the same files, 1 when one differs, and 1 with the command's error output
when a command fails.
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


def extra_commands(w, seed, f):
    """On the scan workloads: ``detect --json`` and ``correct`` of that
    report, ``recover --fills`` as TSV and JSON, and ``evaluate`` of the
    recovered corpus. On the pipeline workload: the chain's ``pipeline``
    with ``--json``, ``evaluate`` of both kinds, and a tiny ``sweep``.
    Every ``evaluate`` writes TSV and JSON."""
    join = lambda name: os.path.join(os.path.dirname(f.prefix), name)
    truth = f.prefix + ".truth.gen"
    if w.pipeline:
        swap = {f.imputed: join("imputed.json"), f.report: join("report.json"),
                f.repaired: join("repaired.json.gen")}
        runs = [[swap.get(a, a) for a in workloads.run_commands(w, seed, f)[0]] + ["--json"],
                ["sweep", "--out", join("sweep.tsv"), "--seed", str(seed), "--loci", "40",
                 "--samples", "6", "--founders", "3", "--founders-grid", "3",
                 "--panel-grid", "12,20", "--flank-grid", "3", "--modes", "imp,edc-mdr-imp"]]
        scored = [("imputation", f.imputed), ("corpus", f.repaired)]
    else:
        scan = ["--model", f.model, "--genotypes", f.observed]
        runs = [["detect", *scan, "--out", join("report.json"), "--json"],
                ["correct", "--genotypes", f.observed, "--report", join("report.json"),
                 "--out", join("corrected.json.gen")],
                ["recover", *scan, "--out", join("recovered.fills.gen"),
                 "--fills", join("fills.tsv")],
                ["recover", *scan, "--out", join("recovered.fills.gen"),
                 "--fills", join("fills.json"), "--json"]]
        scored = [("corpus", f.recovered)]
    for kind, calls in scored:
        evaluate = ["evaluate", "--kind", kind, "--calls", calls, "--truth", truth,
                    "--map", f.locus_map, "--out", join(f"eval.{kind}.tsv")]
        runs += [evaluate, evaluate[:-1] + [join(f"eval.{kind}.json"), "--json"]]
    return runs


def run_tree(src, workload, seed, workdir):
    """Run the set-up and chain with the package under ``src`` in an empty
    ``workdir``; returns {file name: bytes} of what they left."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    files = workloads.Files(workdir)
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (workloads.setup_commands(workload, seed, files)
                 + workloads.run_commands(workload, seed, files)
                 + extra_commands(workload, seed, files)):
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
