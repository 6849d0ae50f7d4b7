"""Every paper experiment's output stays byte-identical.

``tests/data/experiments/<id>.json`` holds what ``repro experiment <id>
--json`` prints, for all experiment ids.  Each test re-runs one id in a
fresh interpreter and compares stdout with its file byte for byte, so a
change to the model, the mapper or the report formatting that moves a
paper table or figure fails here.

Like the analysis oracle (``tests/property/test_prop_pipeline.py``),
the files are regenerated only as their own justified step, after an
intentional change to what an experiment reports, with the old -> new
diff recorded in CHANGES.md; never to make this check pass::

    PYTHONPATH=src python tests/integration/test_experiment_goldens.py
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    os.pardir)
GOLDEN_DIR = os.path.join(ROOT, "tests", "data", "experiments")
EXPERIMENT_IDS = ("fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
                  "fig14", "tab6", "tab7", "tab8", "ablation")


def run_experiment(eid: str) -> bytes:
    """``repro experiment <eid> --json``'s stdout, from a fresh process."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "repro", "experiment", eid, "--json"],
        check=True, stdout=subprocess.PIPE, env=env, timeout=300).stdout


def test_every_experiment_has_a_golden():
    from repro.cli import _EXPERIMENTS

    assert EXPERIMENT_IDS == tuple(_EXPERIMENTS)
    assert sorted(os.listdir(GOLDEN_DIR)) == sorted(
        f"{eid}.json" for eid in EXPERIMENT_IDS)


@pytest.mark.parametrize("eid", EXPERIMENT_IDS)
def test_experiment_output_is_byte_identical(eid):
    with open(os.path.join(GOLDEN_DIR, f"{eid}.json"), "rb") as fh:
        golden = fh.read()
    assert run_experiment(eid) == golden


if __name__ == "__main__":  # regenerate the golden files
    for eid in EXPERIMENT_IDS:
        path = os.path.join(GOLDEN_DIR, f"{eid}.json")
        with open(path, "wb") as fh:
            fh.write(run_experiment(eid))
        print(f"wrote {path}")
