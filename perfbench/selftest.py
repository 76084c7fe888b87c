"""``run.py --self-test``: a short check of the benchmark itself.

* every end-to-end metric prints, with its unit, on every workload, and
  every per-layer metric prints on a traced run;
* ``layers.json`` maps exactly the per-layer metrics ``BENCHMARK.json``
  names, onto workloads and end-to-end metrics that exist;
* a tampered reference digest makes its requests count as failed, so
  ``success_share`` drops below 1 and the run reports ``correct: false``.
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads as wl

SECONDS = 3.0


def _metrics_ok(result: dict, wanted: list[dict]) -> tuple[bool, str]:
    got = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in got]
    wrong = [m["name"] for m in wanted if m["name"] in got
             and got[m["name"]]["unit"] != m["unit"]]
    extra = sorted(set(got) - {m["name"] for m in wanted})
    ok = not (missing or wrong or extra)
    return ok, (f"{len(got)} metrics" if ok else
                f"missing={missing} wrong_unit={wrong} extra={extra}")


def _layer_map_ok(spec: dict) -> tuple[bool, str]:
    layers = json.loads((Path(__file__).parent / "layers.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    problems = sorted(names ^ set(layers["per_layer"]))
    for entry in [*layers["per_layer"].values(), *layers["predictions"]]:
        for target in [*entry["moves"], *entry.get("unchanged", ())]:
            metric, _, workload = target.partition("@")
            if workload and (metric not in end_to_end
                             or workload not in workloads):
                problems.append(target)
    if set(layers["workloads"]) != workloads:
        problems.append("workloads")
    return not problems, ", ".join(problems) or f"{len(names)} layers mapped"


def run(state, run_workload, spec: dict) -> int:
    checks: list[tuple[str, bool, str]] = []
    for workload in wl.WORKLOADS:
        result = run_workload(state, workload, 1, SECONDS, trace=False)
        ok, detail = _metrics_ok(result, spec["end_to_end"])
        checks.append((f"{workload}: end-to-end metrics with units", ok,
                       detail))
        checks.append((f"{workload}: outputs verified",
                       result["correct"] and result["failed"] == 0,
                       f"{result['attempted']} attempted"))
    result = run_workload(state, "hot_native", 1, SECONDS, trace=True)
    ok, detail = _metrics_ok(result, spec["per_layer"])
    checks.append(("traced run: per-layer metrics with units", ok, detail))
    checks.append(("layers.json matches BENCHMARK.json", *_layer_map_ok(spec)))

    tampered = dict(state.refs)
    victim = wl.cell_id(wl.hot_cells()[0])
    tampered[victim] = dict(tampered[victim], sha="0" * 64)
    result = run_workload(state, "hot_native", 1, SECONDS, trace=False,
                          refs=tampered)
    share = result["metrics"]["success_share"]["value"]
    checks.append(("tampered digest counted in success_share",
                   result["failed"] > 0 and share < 1.0
                   and not result["correct"],
                   f"failed={result['failed']} success_share={share:.4f}"))

    for name, passed, detail in checks:
        print(f"perfbench self-test: {'PASS' if passed else 'FAIL'} "
              f"{name}: {detail}")
    failed = sum(not passed for _, passed, _ in checks)
    print(f"perfbench self-test: {len(checks) - failed}/{len(checks)} passed")
    return 1 if failed else 0
