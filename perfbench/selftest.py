"""Self-test of the benchmark at tiny sizes.

Run from the root of a quasikit checkout:

    python3 perfbench/selftest.py

It checks that
  * every workload, untraced and traced, emits exactly the metrics
    BENCHMARK.json names, each with its unit, and passes its output checks;
  * the output checks reject a deliberately corrupted report of every
    command kind, so a fail_ratio of 0 cannot be vacuous;
  * the regularize check draws the principal set where the program does;
  * run.py exits nonzero without printing a result where there is no
    quasikit source tree.
Exit code 0 means all held; failures are listed on stderr.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import run
import workloads

HERE = Path(__file__).resolve().parent


def _corruptions(doc: dict) -> dict:
    """Named corrupted copies of one report, by the report's shape."""
    out = {}

    def variant(name, edit):
        bad = copy.deepcopy(doc)
        edit(bad)
        out[name] = bad

    if "carleman" in doc:
        flip = {"diverging_trend": "converging_trend"}
        variant("flipped verdict", lambda d: d["root_c"].update(
            verdict=flip.get(d["root_c"]["verdict"], "diverging_trend")))
        variant("raised beta entry", lambda d: d["beta"].__setitem__(5, d["beta"][5] + 1e-6))
        variant("shifted partial sum", lambda d: d["carleman"]["partial_sums"].__setitem__(
            -1, d["carleman"]["partial_sums"][-1] * (1 + 1e-9)))
    if "logs_c" in doc:
        i = next(i for i in range(1, len(doc["logs_c"]) - 1) if i not in set(doc["principal"]))
        variant("raised logs_c entry", lambda d: d["logs_c"].__setitem__(i, d["logs_c"][i] + 1e-3))
        variant("dropped principal index", lambda d: d["principal"].pop(len(d["principal"]) // 2))
        variant("added principal index", lambda d: d.update(principal=sorted({*d["principal"], i})))
    if "witness_k" in doc:
        variant("scaled norm value", lambda d: d.update(value=d["value"] * (1 + 1e-9) + 1e-300))
        variant("flipped truncated flag", lambda d: d.update(truncated=not d["truncated"]))
    if "scaled_coeffs" in doc:
        variant("perturbed coefficient", lambda d: d["scaled_coeffs"].__setitem__(
            0, d["scaled_coeffs"][0] + 1e-6))
    if "value" in doc and "x" in doc and "degree" in doc:
        variant("perturbed value", lambda d: d.update(value=d["value"] + 1e-6))
    if "sweep" in doc:
        variant("empty sweep", lambda d: d.update(sweep=0))
        variant("not ok", lambda d: d.update(ok=False))
    if "m_est_log" in doc:
        variant("raised envelope", lambda d: d["m_est_log"].__setitem__(-1, d["m_est_log"][-1] + 1e-6))
    if "lhs_partial" in doc:
        variant("moved zero", lambda d: d["x"].__setitem__(1, d["x"][1] + 1e-6))
        variant("raised rhs", lambda d: d["rhs_partial"].__setitem__(-1, d["rhs_partial"][-1] * (1 + 1e-9)))
    if "holds" in doc:
        variant("flipped holds", lambda d: d.update(holds=not d["holds"]))
    if "omega" in doc:
        variant("perturbed omega", lambda d: [d["omega"].__setitem__(i, d["omega"][i] * (1 + 1e-8))
                                              for i in range(len(d["omega"]))])
    if "algebra_ok" in doc:
        variant("false flag", lambda d: d.update(algebra_ok=False))
    return out


def check_metrics(record: dict, expected: list[dict], label: str, errors: list[str]) -> None:
    got = record["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if set(got) != set(want):
        errors.append(f"{label}: metrics differ: missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name)
        if m and (m["unit"] != unit or not isinstance(m["value"], float) or not math.isfinite(m["value"])):
            errors.append(f"{label}: {name} = {m} should be a finite number in {unit}")
    if record["failed"] or record["problems"]:
        errors.append(f"{label}: {record['failed']} of {record['attempted']} failed: {record['problems']}")


def check_corruptions(workload: str, root: Path, errors: list[str]) -> int:
    workdir = root / run.OUT_DIR / "work" / f"{workload}-seed0"
    cmds = workloads.generate(workload, 0, workdir, scale="tiny")
    rejected = 0
    for cmd in cmds:
        doc = json.loads((workdir / cmd.out).read_text(encoding="utf-8"))
        variants = _corruptions(doc)
        if not variants:
            errors.append(f"{workload}/{cmd.name}: no corruption defined for kind {cmd.kind}")
        for name, bad in variants.items():
            if checks.check_document(cmd, bad, workdir):
                rejected += 1
            else:
                errors.append(f"{workload}/{cmd.name}: the check accepts a report with a {name}")
    return rejected


def check_near_principal(errors: list[str]) -> None:
    """The regularize check follows the program's principal rule: a point
    within 1e-12 max|L_n| above a hull segment is principal, one farther
    above is not, and logs_c is the segment's value either way.  At this
    scale the principal tolerance (5e-7) is far above an absolute 1e-9."""
    for lift, principal, accept in (
        (2e-7, [0, 1, 2, 3], True),
        (1e-6, [0, 2, 3], True),
        (1e-6, [0, 1, 2, 3], False),
    ):
        logs = [0.0, 1e5 + lift, 2e5, 5e5]
        cmd = workloads.Command("near-principal", "seq_regularize", [], "",
                                facts={"spec": {"family": "explicit", "logs": logs}})
        doc = {"logs_c": [0.0, 1e5, 2e5, 5e5], "principal": principal}
        found = checks.check_document(cmd, doc, Path("."))
        if bool(found) == accept:
            errors.append(f"regularize check with L_1 = 1e5 + {lift:g} and principal {principal}: "
                          f"{'rejected' if found else 'accepted'}: {found}")


def check_no_source(root: Path, errors: list[str]) -> None:
    bare = root / run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    res = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", workloads.WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    if res.returncode == 0 or res.stdout.strip():
        errors.append(f"without a source tree run.py exited {res.returncode} and printed {res.stdout!r}")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors: list[str] = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in workloads.WORKLOADS:
        for trace, expected in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            record = run.run_workload(workload, 0, 0.0, trace, root / "src", root, scale="tiny")
            check_metrics(record, expected, f"{workload} trace {int(trace)}", errors)
        rejected = check_corruptions(workload, root, errors)
        print(f"selftest: {workload}: metrics and checks ok so far; {rejected} corrupted reports rejected")
    check_near_principal(errors)
    check_no_source(root, errors)
    for error in errors:
        print(f"selftest: FAIL {error}", file=sys.stderr)
    print("selftest: ok" if not errors else f"selftest: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
