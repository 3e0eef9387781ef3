"""Same-results check for the floquet-lab CLI.

    python3 scripts/same_results.py run DIR [--src PATH]
    python3 scripts/same_results.py compare A B [--exact]

``run`` runs a fixed set of CLI commands on the shipped configs in fresh
processes and writes, into DIR, every file they write plus each command's
stdout, stderr and exit code. The commands: ``propagate --form all`` at
t = 2.5 and at t = 20.3 with s = 0.7, ``stability`` and
``resonance-scan --omega-range 0.8:1.2 --steps 3`` on each shipped
oscillator config, ``kam`` on each shipped KAM problem (writing its
history and result files; ``kam_resonant`` exits 5 by design), and
``verify --suite all``. ``--src`` names the source
tree whose ``floquet_lab`` runs (default: this checkout's ``src``), so one
copy of the script can run two revisions. The commands run on one BLAS
thread, so that a rerun of one revision is byte-identical. ``run`` exits 0 whatever the
exit codes of the commands are: they are part of the record.

``compare`` reads two such directories. Every file is split into numbers
and the text between them. Any difference in the text, in the file set or
in the count of numbers is a failure (exit 1). Numbers may move; the
worst absolute and relative deviation and the number of moved values are
printed. With ``--exact`` a moved number is a failure too: two runs of
one revision must be byte-identical, or a diff between two revisions
says nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

CHECKOUT_SRC = Path(__file__).resolve().parent.parent / "src"
OSCILLATOR_CONFIGS = ("nonresonant", "resonant_identity", "resonant_growth")
KAM_PROBLEMS = ("kam_golden", "kam_resonant")

# a decimal number not glued to a word on the left and not followed by one
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?(?!\w)")


def _cases(configs: dict[str, str]) -> list[tuple[str, list[str]]]:
    cases = []
    for name in OSCILLATOR_CONFIGS:
        cfg = configs[name]
        cases += [
            (f"{name}.propagate_t2.5", ["propagate", cfg, "--t", "2.5", "--form", "all",
                                        "--out", f"{name}.propagate_t2.5.json"]),
            (f"{name}.propagate_t20.3_s0.7", ["propagate", cfg, "--t", "20.3", "--s", "0.7", "--form", "all",
                                              "--out", f"{name}.propagate_t20.3_s0.7.json"]),
            (f"{name}.stability", ["stability", cfg, "--periods", "20", "--samples", "4",
                                   "--out-csv", f"{name}.stability.csv"]),
            (f"{name}.resonance_scan", ["resonance-scan", cfg, "--omega-range", "0.8:1.2", "--steps", "3",
                                        "--out-csv", f"{name}.resonance_scan.csv"]),
        ]
    for name in KAM_PROBLEMS:
        cases.append((f"{name}.kam", ["kam", configs[name], "--out-history", f"{name}.kam_history.jsonl",
                                      "--out-result", f"{name}.kam_result.json"]))
    cases.append(("verify_all", ["verify", "--suite", "all"]))
    return cases


def _config_paths(env: dict) -> dict[str, str]:
    """Paths of the shipped configs inside the source tree that runs."""
    code = (
        "import json, sys; from floquet_lab.cli import shipped_config_path as p; "
        "print(json.dumps({n: p(n + '.json') for n in sys.argv[1:]}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *OSCILLATOR_CONFIGS, *KAM_PROBLEMS],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(done.stdout)


def cmd_run(args) -> int:
    out = Path(args.dir).resolve()
    out.mkdir(parents=True, exist_ok=True)
    # one BLAS thread: threaded reductions may round differently run to run
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path(args.src).resolve())
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    exit_codes = {}
    for case, argv in _cases(_config_paths(env)):
        done = subprocess.run(
            [sys.executable, "-m", "floquet_lab.cli", *argv],
            capture_output=True, cwd=out, env=env, check=False,
        )
        (out / f"{case}.stdout").write_bytes(done.stdout)
        (out / f"{case}.stderr").write_bytes(done.stderr)
        exit_codes[case] = done.returncode
        print(f"{case}: exit {done.returncode}", flush=True)
    (out / "exit_codes.json").write_text(json.dumps(exit_codes, indent=2, sort_keys=True) + "\n")
    return 0


def _split(text: str) -> tuple[list[str], list[str]]:
    """(text pieces, number strings); the pieces surround the numbers."""
    return _NUMBER.split(text), _NUMBER.findall(text)


def cmd_compare(args) -> int:
    a_dir, b_dir = Path(args.a), Path(args.b)
    a_files = {p.name for p in a_dir.iterdir() if p.is_file()}
    b_files = {p.name for p in b_dir.iterdir() if p.is_file()}
    failures = [f"only in {a_dir}: {n}" for n in sorted(a_files - b_files)]
    failures += [f"only in {b_dir}: {n}" for n in sorted(b_files - a_files)]
    total = moved = 0
    worst_abs = worst_rel = (0.0, "")
    for name in sorted(a_files & b_files):
        a_text, a_nums = _split((a_dir / name).read_text(encoding="utf-8"))
        b_text, b_nums = _split((b_dir / name).read_text(encoding="utf-8"))
        if a_text != b_text or len(a_nums) != len(b_nums):
            failures.append(f"{name}: text outside numbers differs")
            continue
        total += len(a_nums)
        file_moved, file_abs, file_rel = 0, 0.0, 0.0
        for x_s, y_s in zip(a_nums, b_nums):
            if x_s == y_s:
                continue
            file_moved += 1
            x, y = float(x_s), float(y_s)
            dev = abs(x - y)
            scale = max(abs(x), abs(y))
            rel = dev / scale if scale else 0.0
            file_abs, file_rel = max(file_abs, dev), max(file_rel, rel)
            where = f" ({name}: {x_s} -> {y_s})"
            worst_abs = max(worst_abs, (dev, where))
            worst_rel = max(worst_rel, (rel, where))
        if file_moved:
            print(f"{name}: {file_moved} of {len(a_nums)} numbers moved, "
                  f"worst absolute {file_abs:.3e}, relative {file_rel:.3e}")
        moved += file_moved
    print(f"{len(a_files & b_files)} common files, {total} numbers, {moved} moved")
    print(f"worst absolute deviation {worst_abs[0]:.3e}{worst_abs[1]}")
    print(f"worst relative deviation {worst_rel[0]:.3e}{worst_rel[1]}")
    if args.exact and moved:
        failures.append(f"{moved} numbers moved (--exact)")
    for line in failures:
        print(f"DIFF {line}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run", help="run the CLI cases into DIR")
    p.add_argument("dir")
    p.add_argument("--src", default=str(CHECKOUT_SRC), help="source tree to run (default: this checkout's src)")
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("compare", help="compare two run directories")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--exact", action="store_true", help="fail when any number moved")
    p.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
