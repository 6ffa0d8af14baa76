"""Record the stdout the package prints for every pinned benchmark input.

    python3 bench/make_expected.py

Writes bench/expected.json: the stdout of each fixed argv (the battery
and the symbolic members) and a pool of seeded non-member forms per
degree with their stdout.  A run's membership workload samples its
non-members from this pool by seed.  Regenerate only when the package's
output is meant to change; the benchmark compares against these bytes.
"""

import json
import random
import sys

from run import spawn
from workloads import (
    EXPECTED_PATH,
    MEMBER_STDOUT,
    NONMEMBER_DEGREES,
    argv_key,
    fixed_argvs,
    form_text,
    nonmember_candidates,
    symbolic_argvs,
)

POOL_SEED = 20261017
POOL_PER_DEGREE = 24


def record(argvs) -> list:
    _, report = spawn(argvs)
    out = []
    for argv, rec in zip(argvs, report["records"]):
        if rec["code"] != 0 or rec["error"]:
            raise SystemExit(f"{argv[:5]} failed: {rec}")
        out.append(rec["stdout"])
    return out


def main() -> int:
    fixed = fixed_argvs()
    stdouts = record(fixed)
    for argv in symbolic_argvs():
        if stdouts[fixed.index(argv)] != MEMBER_STDOUT:
            raise SystemExit(f"symbolic member {argv[:3]} was rejected")
    rng = random.Random(POOL_SEED)
    pool = {}
    for d in NONMEMBER_DEGREES:
        forms = nonmember_candidates(d, POOL_PER_DEGREE, rng)
        outs = record([["membership", "--d", str(d), "--f", form_text(c)] for c in forms])
        pool[str(d)] = [{"coeffs": c, "stdout": s} for c, s in zip(forms, outs)]
    data = {
        "fixed": {argv_key(a): s for a, s in zip(fixed, stdouts)},
        "nonmember_pool": pool,
    }
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
