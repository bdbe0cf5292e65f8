#!/usr/bin/env python3
"""Compare what two source trees of prescurv write for the same solves.

    python scripts/compare_outputs.py SRC_A SRC_B [--work DIR]

SRC_A and SRC_B are checkouts of this repository.  Every configs/*.cfg of
SRC_B is solved with and without --force, and so is the 64x32 headline (an
angular f on the euclidean annulus (0.5, 2)), under each tree in turn:
`python -m prescurv` with PYTHONPATH=<tree>/src, into DIR/a/<run> and
DIR/b/<run> (a temporary directory unless --work is given).  Each run
directory also records the run's exit code in a file `exit_code`.

Then, run by run, the exit codes are compared, the three CSVs byte for
byte, and report.txt with its [timings] section dropped and the paths in
[files] reduced to file names.  Each file prints "identical" or, where it
differs, the largest numeric difference between matching cells (or where the
text stops matching).  The exit status is 1 on any difference, else 0.
"""

from __future__ import annotations

import argparse
import glob
import math
import os
import re
import subprocess
import sys
import tempfile

HEADLINE = """\
warp.kind = euclidean
warp.domain = 0,10
mesh.n_theta = 64
mesh.n_phi = 32
problem.r1 = 0.5
problem.r2 = 2
phi.rm = 1.25
f.expr = 1/r^2*exp(1.25-r)*(1+0.03*sin(th)*cos(ph))
"""

FILES = ("exit_code", "solution.csv", "geometry.csv", "monitor.csv", "report.txt")
_CELL = re.compile(r"[^\s,=]+")


def runs(src_b: str, work: str):
    """(name, config path, force) of every run: each config of SRC_B, then the headline."""
    headline = os.path.join(work, "headline64.cfg")
    with open(headline, "w") as fh:
        fh.write(HEADLINE)
    configs = sorted(glob.glob(os.path.join(src_b, "configs", "*.cfg"))) + [headline]
    return [(os.path.splitext(os.path.basename(cfg))[0] + ("-force" if force else ""), cfg, force)
            for cfg in configs for force in (False, True)]


def solve_all(src: str, plan, out_root: str):
    """Run each planned solve under the source tree src; write each exit code beside its outputs."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(src), "src"))
    for name, cfg, force in plan:
        out = os.path.join(out_root, name)
        os.makedirs(out, exist_ok=True)
        argv = [sys.executable, "-m", "prescurv", "--config", cfg, "--out", out]
        done = subprocess.run(argv + ["--force"] * force + ["solve"], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        with open(os.path.join(out, "exit_code"), "w") as fh:
            fh.write(f"{done.returncode}\n")


def _normalised(text: str, name: str) -> str:
    """report.txt without [timings], its [files] paths cut to file names; other files as they are."""
    if name != "report.txt":
        return text
    lines, section = [], None
    for line in text.splitlines():
        if line.startswith("["):
            section = line
        if section == "[timings]":
            continue
        if section == "[files]" and " = " in line:
            key, _, path = line.partition(" = ")
            line = f"{key} = {os.path.basename(path)}"
        lines.append(line)
    return "\n".join(lines)


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def difference(text_a: str, text_b: str) -> str:
    """'identical', 'max |diff| = ...' over cells that differ only in value, or where the text parts."""
    if text_a == text_b:
        return "identical"
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    worst = 0.0
    for i, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        cells_a, cells_b = _CELL.findall(la), _CELL.findall(lb)
        if len(cells_a) != len(cells_b):
            return f"differs at line {i}"
        for ca, cb in zip(cells_a, cells_b):
            if ca == cb:
                continue
            a, b = _number(ca), _number(cb)
            if a is None or b is None:
                return f"differs at line {i}"
            gap = abs(a - b)
            worst = max(worst, gap if not math.isnan(gap) else math.inf)
    if len(lines_a) != len(lines_b):
        return f"differs in length: {len(lines_a)} vs {len(lines_b)} lines"
    return f"max |diff| = {worst:.3e}" if worst else "differs in text, not in value"


def compare(out_a: str, out_b: str) -> bool:
    """Print one line per file of each run under out_a and out_b; True if every file matches."""
    same = True
    names = sorted(set(os.listdir(out_a)) | set(os.listdir(out_b)))
    for run in (n for n in names if os.path.isdir(os.path.join(out_a, n))
                or os.path.isdir(os.path.join(out_b, n))):
        for name in FILES:
            texts = []
            for root in (out_a, out_b):
                path = os.path.join(root, run, name)
                if os.path.exists(path):
                    with open(path, newline="") as fh:  # no newline translation: bytes compare
                        texts.append(_normalised(fh.read(), name))
                else:
                    texts.append(None)
            if texts[0] is None and texts[1] is None:
                continue
            if None in texts:
                verdict = f"missing under {'ab'[texts.index(None)]}"
            else:
                verdict = difference(*texts)
            same &= verdict == "identical"
            print(f"{run}/{name}: {verdict}")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--work", help="directory for the runs (kept); default a temporary one")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = os.path.abspath(args.work or tmp)
        os.makedirs(work, exist_ok=True)
        plan = runs(args.src_b, work)
        for src, side in ((args.src_a, "a"), (args.src_b, "b")):
            solve_all(src, plan, os.path.join(work, side))
        same = compare(os.path.join(work, "a"), os.path.join(work, "b"))
    print("all outputs identical" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
