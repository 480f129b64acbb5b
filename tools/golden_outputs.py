"""Run the fixed CLI command set and print the sha256 of every output.

Usage, from the root of a checkout:

    python tools/golden_outputs.py OUTDIR

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
"""
from __future__ import annotations

import hashlib
import os
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


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/golden_outputs.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    src = str(Path("src").resolve())
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    files = []
    for name, args in commands():
        proc = subprocess.run([sys.executable, "-m", "fraclangevin.cli", *args],
                              cwd=out, env=env, capture_output=True)
        (out / f"out_{name}.txt").write_bytes(proc.stdout)
        if proc.returncode:
            sys.stderr.write(proc.stderr.decode())
            print(f"{name}: exit status {proc.returncode}", file=sys.stderr)
            return 1
        files += [f"out_{name}.txt", args[args.index("--out") + 1]]
    for name in sorted(files):
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
