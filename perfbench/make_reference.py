"""Regenerate perfbench/reference.json, the stored fig1_pair results.

    python3 perfbench/make_reference.py

Runs `liees run` on both bundled fig1 configs at the benchmark's horizon for
every decimation the seed can pick, and stores the rate class, lambda or p,
and the SHA-256 of the trajectory CSV and summary JSON.  Run it only when a
change to liees is meant to alter these outputs, and say so in that change.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, child_env
from workloads import Fig1Pair, sha256


def main() -> int:
    env = child_env()
    runs = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        tmp = Path(tmp)
        for dec in Fig1Pair.DECIMATIONS:
            runs[str(dec)] = {}
            for name in ("fig1_we", "fig1_durr"):
                cfg = tmp / f"{name}.json"
                cfg.write_text(json.dumps(Fig1Pair.config(ROOT, name, dec)))
                p = subprocess.run([sys.executable, "-m", "liees", "run", "--config", str(cfg),
                                    "--out", str(tmp)], env=env, capture_output=True,
                                   text=True, check=True)
                rate = json.loads(p.stdout)["rate"]
                runs[str(dec)][name] = {
                    "rate_class": rate["rate_class"], "lambda": rate["lambda"],
                    "power_exponent": rate["power_exponent"],
                    "csv_sha256": sha256(tmp / f"{name}_traj.csv"),
                    "summary_sha256": sha256(tmp / f"{name}_summary.json"),
                }
                print(dec, name, runs[str(dec)][name], flush=True)
    ref = {"fig1_pair": {"horizon": Fig1Pair.HORIZON, "runs": runs}}
    (Path(__file__).parent / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
