"""The same pipeline as a sequence of shell commands.

Every stage of the library is exposed as a subcommand reading and writing
plain files, so an analysis can live in a Makefile. This script drives
the CLI through a scratch directory and shows what lands where.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

rng = np.random.default_rng(6)


def run(*args):
    command = [sys.executable, "-m", "tradeflux.cli", *args]
    print("\n$ tradeflux " + " ".join(args))
    result = subprocess.run(command, capture_output=True, text=True)
    sys.stdout.write(result.stderr)
    result.check_returncode()


with tempfile.TemporaryDirectory() as scratch:
    scratch = Path(scratch)

    # fabricate double-reported records for one year, N countries: each
    # reporter states its exports to and its imports from every partner in
    # one row, each claim with 2% reporting noise
    n = 40
    codes = [f"C{i:02d}" for i in range(n)]
    flows = np.where(rng.random((n, n)) < 0.3, rng.lognormal(3.0, 1.4, (n, n)), 0.0)
    np.fill_diagonal(flows, 0.0)

    def claim(flow):
        return f"{flow * (1 + 0.02 * rng.standard_normal()):.3f}" if flow > 0 else ""

    lines = ["year,reporter,partner,exports,imports"]
    for i in range(n):
        for j in range(n):
            if i != j and (flows[i, j] > 0 or flows[j, i] > 0):
                lines.append(f"2000,{codes[i]},{codes[j]},"
                             f"{claim(flows[i, j])},{claim(flows[j, i])}")
    records = scratch / "records.csv"
    records.write_text("\n".join(lines) + "\n")
    print(f"wrote {records} ({len(lines) - 1} rows)")

    out = scratch / "out"
    run("build", str(records), "--year", "2000", "--policy", "average",
        "-o", str(out))
    run("disparity", str(out / "network.tsv"), "-o", str(out))
    run("backbone", str(out / "network.tsv"), "--alpha", "0.2,0.05,0.01",
        "-o", str(out))

    # pick the biggest net consumer from the accounts file
    rows = (out / "accounts.csv").read_text().splitlines()[1:]
    focal = min(rows, key=lambda r: float(r.split(",")[5])).split(",")[0]
    run("dollar", str(out / "network.tsv"), "--from", focal, "--exact",
        "--top", "5", "-o", str(out))
    run("export", str(out / "network.tsv"), "--format", "graphml", "-o", str(out))

    print("\nproduced files:")
    for path in sorted(out.iterdir()):
        print(f"  {path.name:32} {path.stat().st_size:8d} bytes")

    fits = json.loads((out / "scaling_fit.json").read_text())
    print(f"\nfitted concentration exponents: "
          f"in {fits['in']['beta']:.3f}, out {fits['out']['beta']:.3f}")
