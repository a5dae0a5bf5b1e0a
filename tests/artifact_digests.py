"""SHA-256 digests of every CLI artifact over a fixed set of configs.

BYTE_CONFIGS holds the override sets on which the artifact bytes are
checked; tests/test_cli.py compares the writer with a per-cell
reference over them.  Run as a script, this file runs all 12
subcommands in both output formats for each config, in process, with
tomo-fit reading the CSV tomogram that tomo-synth wrote for the same
config.  It prints a comment line naming the Python and numpy versions
(no artifact depends on scipy, which the package never imports), the
machine, numpy's highest enabled x86-64 SIMD level and the kernel
OpenBLAS picked at run time, then one line
``<sha256>  <config>/<format>/<artifact>`` per artifact, sorted, where
<config> is the index into BYTE_CONFIGS: 192 lines in all.  It exits 1 if any run does not exit 0.

tests/artifact_digests.txt holds that output for the current tree, and
tests/test_cli.py regenerates the digests and compares them with it.  A
change that moves an artifact's bytes on purpose rewrites the file and
names each moved line and why in CHANGES.md:

    PYTHONPATH=src python3 tests/artifact_digests.py --write

To compare two source trees directly, run it against both and diff:

    PYTHONPATH=<parent>/src python3 tests/artifact_digests.py > parent.txt
    PYTHONPATH=src python3 tests/artifact_digests.py > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import platform
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

import numpy as np

from jpmsim.cli import _SUBCOMMANDS, run_subcommand

BYTE_CONFIGS = (
    (),
    ("device.critical_current=0.1uA",),
    ("ramsey.n_shots=100", "rabi.n_shots=50", "tomo.n_shots=200"),
    ("transfer.kappa_ratios=",),
    ("stark.powers=0,0.5,1",),
    ("potential.flux_points=1200", "device.critical_current=3uA"),
    ("capture.frequency=5.021GHz",),
    ("iq.centroid_0=0.2,-0.3", "iq.centroid_1=1.1,0.4", "iq.sigma=0.45"),
)

DIGESTS_FILE = Path(__file__).with_name("artifact_digests.txt")
"""The recorded output of this script for the current tree."""


def _openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS picked for this CPU (OPENBLAS_CORETYPE overrides it), or unknown."""
    libs = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def versions_line() -> str:
    """The comment line naming the Python and numpy versions, the machine, numpy's SIMD level and OpenBLAS's kernel.

    The level is the highest of X86_V2, X86_V3 and X86_V4 that numpy's
    dispatch has enabled, or unknown: some artifact values differ in the
    last bit between numpy's SIMD loops, and some between OpenBLAS
    kernels.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    level = next((name for name in ("X86_V4", "X86_V3", "X86_V2") if features.get(name)), "unknown")
    return (
        f"# python {platform.python_version()}, numpy {version('numpy')}, {platform.machine()}, simd {level}, "
        f"openblas {_openblas_core()}"
    )


def digests(work_dir: Path, names: tuple[str, ...] = tuple(_SUBCOMMANDS)) -> tuple[list[str], int]:
    """(sorted digest lines, number of failed runs) of the subcommands names, writing under work_dir."""
    lines = []
    failures = 0
    for index, overrides in enumerate(BYTE_CONFIGS):
        tomogram = work_dir / str(index) / "csv" / "tomogram.csv"
        for file_format in ("csv", "json"):
            out_dir = work_dir / str(index) / file_format
            settings = overrides + (f"output.format={file_format}", f"tomo.input={tomogram}")
            for name in names:
                with contextlib.redirect_stdout(io.StringIO()):
                    code, paths = run_subcommand(name, overrides=settings, output_dir=str(out_dir))
                if code != 0:
                    print(f"{index}/{file_format}/{name}: exit {code}", file=sys.stderr)
                    failures += 1
                for path in paths:
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append(f"{digest}  {index}/{file_format}/{path.name}")
    return sorted(lines), failures


def main(argv: list[str]) -> int:
    """Print the versions line and the digest lines, or with --write
    write them to DIGESTS_FILE instead, unless a run failed."""
    if argv not in ([], ["--write"]):
        print("usage: artifact_digests.py [--write]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work_dir:
        lines, failures = digests(Path(work_dir))
    text = "\n".join([versions_line(), *lines]) + "\n"
    if failures:
        return 1
    if argv:
        DIGESTS_FILE.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
