"""Run the fixed CLI command set and print the sha256 of every output.

Usage, from the root of a checkout:

    python tools/golden_outputs.py OUTDIR [--against OTHER_OUTDIR]

The commands run with ``python -m fraclangevin.cli`` against ``./src``
of the current directory, so the same script hashes any checkout.  For
H in {0.7, 0.3}: ``simulate-fbm`` by the kernel and the exact route,
``simulate-velocity``, ``estimate-hurst`` on both fBm CSVs and
``estimate-ah`` on the velocity CSV; then ``validate`` and
``validate --check residual --n 256``.  They run inside OUTDIR with
bare file names, so no hash depends on where OUTDIR is.  Each command's
stdout is kept as ``out_<name>.txt`` next to its CSV or JSON file, and one
``sha256  file`` line is printed per file (28 in all), sorted by name.
A refactor meant to leave results unchanged leaves every line alone.
The hashes depend on the platform (CPU, Python and numpy build).
Every kernel product goes through the parts of ``kernels._layout``:
entries evaluated next to the diagonal, column blocks interpolated
further out and prefix sums of the closed form below about s = t/2.
A command's first product on a grid streams them, and later ones apply
the operator the store then keeps (``kernels._kernel_product``): the
``--paths 4`` kernel runs use both, ``validate`` streams; the hashes see both.

``--against OTHER_OUTDIR`` compares with the outputs an earlier run left
there, for instance from another checkout: for each file whose hash
moved it prints the largest absolute and relative change of the numbers
in the file, read in order (relative to the larger magnitude of each
pair), or says that the files hold different numbers of numbers.  It
exits with status 1 when any file moved or is missing from OTHER_OUTDIR
and 0 otherwise, so the comparison can gate a CI step.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

HURSTS = ("0.7", "0.3")
VELOCITY = ("--ah", "1", "--mass", "1", "--friction", "2", "--sigma", "0.5",
            "--v0", "1", "--steps", "512", "--seed", "2")


def commands():
    """(name, CLI arguments) of the fixed set, in the order they run."""
    for h in HURSTS:
        for method in ("kernel", "exact"):
            yield (f"fbm_{method}_{h}",
                   ("simulate-fbm", "--hurst", h, "--steps", "512",
                    "--paths", "4", "--seed", "1", "--method", method,
                    "--out", f"fbm_{method}_{h}.csv"))
        yield (f"vel_{h}", ("simulate-velocity", "--hurst", h, *VELOCITY,
                            "--out", f"vel_{h}.csv"))
        for route, tag in (("kernel", ""), ("exact", "_exact")):
            yield (f"hurst{tag}_{h}",
                   ("estimate-hurst", f"fbm_{route}_{h}.csv",
                    "--increments", "--out", f"hurst{tag}_{h}.json"))
        yield (f"ah_{h}", ("estimate-ah", f"vel_{h}.csv", f"vel_{h}.csv",
                           "--hurst", h, "--out", f"ah_{h}.json"))
    yield ("validate", ("validate", "--out", "validate.json"))
    yield ("validate_residual",
           ("validate", "--check", "residual", "--n", "256",
            "--out", "validate_residual.json"))


NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def largest_change(new: bytes, old: bytes) -> str:
    """Largest absolute and relative change between the numbers of two files."""
    a = [float(x) for x in NUMBER.findall(new)]
    b = [float(x) for x in NUMBER.findall(old)]
    if len(a) != len(b):
        return f"{len(a)} numbers against {len(b)}"
    diff = [(abs(x - y), max(abs(x), abs(y))) for x, y in zip(a, b) if x != y]
    if not diff:
        return "same numbers, other bytes"
    return (f"max abs {max(d for d, _ in diff):.2g}, "
            f"max rel {max(d / m for d, m in diff):.2g}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--against", type=Path, metavar="OTHER_OUTDIR",
                        help="report how far each moved file's numbers moved")
    args = parser.parse_args(argv)
    out = args.outdir.resolve()
    out.mkdir(parents=True, exist_ok=True)
    src = str(Path("src").resolve())
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    files = []
    for name, cli_args in commands():
        proc = subprocess.run([sys.executable, "-m", "fraclangevin.cli", *cli_args],
                              cwd=out, env=env, capture_output=True)
        (out / f"out_{name}.txt").write_bytes(proc.stdout)
        if proc.returncode:
            sys.stderr.write(proc.stderr.decode())
            print(f"{name}: exit status {proc.returncode}", file=sys.stderr)
            return 1
        files += [f"out_{name}.txt", cli_args[cli_args.index("--out") + 1]]
    for name in sorted(files):
        data = (out / name).read_bytes()
        print(f"{hashlib.sha256(data).hexdigest()}  {name}")
    moved = 0
    for name in sorted(files) if args.against is not None else ():
        other = args.against / name
        old = other.read_bytes() if other.exists() else None
        new = (out / name).read_bytes()
        if old != new:
            change = "missing" if old is None else largest_change(new, old)
            print(f"moved  {name}: {change}")
            moved += 1
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
