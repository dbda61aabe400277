"""Output checks, run outside the timed region; they feed
``verdict_mismatches``.

* table1 at seed 0: the stuck-at payload digests match
  ``tests/data/golden_stuckat_digests.json`` (read, never written).
* table1 / table2: per-job verdict counts (total, detected,
  undetectable, aborted) match the frozen ``verdicts.json``.
* every detected fault's recorded test is replayed by
  :func:`repro.core.verify.audit_result` and must catch it.
* edit_rerun: each incremental rerun's verdict counts equal a plain
  ``execute_job`` run on the same edited netlist.

Passes repeat the same seeded work, so each distinct payload (by digest)
is audited once per run.

Regenerate ``verdicts.json`` only after an intentional result change::

    python3 perfbench/checks.py --freeze
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = ROOT / "tests" / "data" / "golden_stuckat_digests.json"
VERDICTS_PATH = HERE / "verdicts.json"

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from repro.campaign import runner  # noqa: E402
from repro.campaign.plan import CampaignSpec, expand  # noqa: E402
from repro.core.atpg import AtpgResult  # noqa: E402
from repro.core.three_phase import DETECTED  # noqa: E402
from repro.core.verify import audit_result  # noqa: E402

import workloads  # noqa: E402


def digest(payload: Dict) -> str:
    """SHA-256 of a payload minus its wall-clock and version fields, as
    ``tests/test_faultmodels_diff.py`` computes it."""
    doc = {
        k: v
        for k, v in payload.items()
        if k not in ("cpu_seconds", "schema_version", "telemetry")
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def verdict_counts(payload: Dict) -> List[int]:
    return [
        payload["n_total"],
        payload["n_covered"],
        payload["n_undetectable"],
        payload["n_aborted"],
    ]


def audit_ok(result: AtpgResult) -> bool:
    """Every test is race-free and catches each fault credited to it."""
    report = audit_result(result)
    if not report.all_tests_valid:
        return False
    return all(
        status.test_index is not None
        and status.fault in report.per_test[status.test_index]
        for status in result.statuses.values()
        if status.status == DETECTED
    )


class Checker:
    """Checks the operations of every pass of one run."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workdir = workdir
        self.frozen: Optional[Dict] = None
        self.golden: Optional[Dict] = None
        if workload in ("table1", "table2"):
            self.frozen = json.loads(VERDICTS_PATH.read_text())[workload]
        if workload == "table1" and seed == 0:
            self.golden = json.loads(GOLDEN_PATH.read_text())
        self._seen: Dict[object, bool] = {}  # memo of per-output verdicts
        self._cssg_memo: Dict = {}
        self.problems: List[str] = []

    def check_pass(self, run_pass) -> int:
        """Number of operations in ``run_pass`` whose output fails."""
        bad = 0
        for op in run_pass.ops:
            if op.error:
                continue  # failed, not mismatched
            self._cssg_memo = {}  # plain reruns of one netlist share its CSSG
            check = self._edit_output_ok if op.text is not None else self._job_ok
            if not all(check(op, *output) for output in op.outputs):
                bad += 1
        return bad

    def _note(self, ok: bool, what: str) -> bool:
        if not ok and what not in self.problems:
            self.problems.append(what)
        return ok

    def _job_ok(self, op, job, payload, live) -> bool:
        ok = self._note(
            verdict_counts(payload) == self.frozen.get(job.name),
            f"{job.name}: verdict counts {verdict_counts(payload)}"
            f" != frozen {self.frozen.get(job.name)}",
        )
        key = digest(payload)
        if self.golden is not None and job.fault_model in ("input", "output"):
            ok &= self._note(
                key == self.golden[f"{job.source}/{job.fault_model}"],
                f"{job.name}: payload digest differs from the golden digest",
            )
        if key not in self._seen:
            self._seen[key] = audit_ok(live)
        return self._note(self._seen[key], f"{job.name}: audit failed") and ok

    def _edit_output_ok(self, op, job, payload, live) -> bool:
        source = hashlib.sha256(op.text.encode("utf-8")).hexdigest()
        key = (source, job.fault_model, digest(payload))
        if key not in self._seen:
            path = self.workdir / f"check-{source[:16]}.net"
            path.write_text(op.text)
            spec = CampaignSpec(
                benchmarks=[str(path)],
                fault_models=(job.fault_model,),
                seeds=(job.seed,),
            )
            plain = runner.execute_job(expand(spec)[0], self._cssg_memo)
            path.unlink()
            replayed = AtpgResult.from_json_dict(payload, plain.circuit)
            replayed.cssg = plain.cssg
            self._seen[key] = self._note(
                verdict_counts(payload) == verdict_counts(plain.to_json_dict()),
                f"{op.name}/{job.fault_model}: incremental verdicts differ "
                "from a plain run",
            ) & self._note(
                audit_ok(replayed), f"{op.name}/{job.fault_model}: audit failed"
            )
        return self._seen[key]


def freeze() -> None:
    """Record the per-job verdict counts of both tables at seed 0."""
    frozen = {}
    for workload in ("table1", "table2"):
        run_pass = workloads.run_table_pass(workloads.spec_for(workload, 0))
        frozen[workload] = {
            op.name: verdict_counts(op.outputs[0][1]) for op in run_pass.ops
        }
    lines = []
    for workload, jobs in frozen.items():
        rows = ",\n".join(
            f"    {json.dumps(name)}: {json.dumps(counts)}"
            for name, counts in sorted(jobs.items())
        )
        lines.append(f"  {json.dumps(workload)}: {{\n{rows}\n  }}")
    VERDICTS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {sum(map(len, frozen.values()))} job verdicts to {VERDICTS_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit("usage: python3 perfbench/checks.py --freeze")
    freeze()
