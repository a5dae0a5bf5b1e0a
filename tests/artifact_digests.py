"""SHA-256 digests of every CLI artifact over a fixed set of configs.

BYTE_CONFIGS holds the override sets on which the artifact bytes are
checked; tests/test_cli.py compares the writer with a per-cell
reference over them.  Run as a script, this file runs all 12
subcommands in both output formats for each config, in process, with
tomo-fit reading the CSV tomogram that tomo-synth wrote for the same
config.  It prints one line ``<sha256>  <config>/<format>/<artifact>``
per artifact, sorted, where <config> is the index into BYTE_CONFIGS:
168 lines in all.  It exits 1 if any run does not exit 0.

To check that a change keeps every artifact's bytes, run it against
both source trees and diff the two outputs:

    PYTHONPATH=<parent>/src python3 tests/artifact_digests.py > parent.txt
    PYTHONPATH=src python3 tests/artifact_digests.py > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from jpmsim.cli import _SUBCOMMANDS, run_subcommand

BYTE_CONFIGS = (
    (),
    ("device.critical_current=0.1uA",),
    ("ramsey.n_shots=100", "rabi.n_shots=50", "tomo.n_shots=200"),
    ("transfer.kappa_ratios=",),
    ("stark.powers=0,0.5,1",),
    ("potential.flux_points=1200", "device.critical_current=3uA"),
    ("capture.frequency=5.021GHz",),
)


def digests(work_dir: Path) -> tuple[list[str], int]:
    """(sorted digest lines, number of failed runs), writing under work_dir."""
    lines = []
    failures = 0
    for index, overrides in enumerate(BYTE_CONFIGS):
        tomogram = work_dir / str(index) / "csv" / "tomogram.csv"
        for file_format in ("csv", "json"):
            out_dir = work_dir / str(index) / file_format
            settings = overrides + (f"output.format={file_format}", f"tomo.input={tomogram}")
            for name in _SUBCOMMANDS:
                with contextlib.redirect_stdout(io.StringIO()):
                    code, paths = run_subcommand(name, overrides=settings, output_dir=str(out_dir))
                if code != 0:
                    print(f"{index}/{file_format}/{name}: exit {code}", file=sys.stderr)
                    failures += 1
                for path in paths:
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append(f"{digest}  {index}/{file_format}/{path.name}")
    return sorted(lines), failures


def main() -> int:
    with tempfile.TemporaryDirectory() as work_dir:
        lines, failures = digests(Path(work_dir))
    print("\n".join(lines))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
