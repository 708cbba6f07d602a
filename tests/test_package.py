from pathlib import Path

import fermatlucas

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_every_exported_name_resolves():
    missing = [name for name in fermatlucas.__all__ if not hasattr(fermatlucas, name)]
    assert missing == []
    assert len(set(fermatlucas.__all__)) == len(fermatlucas.__all__)


def test_no_reports_only_ci_step_asserts():
    # A step named "reports only" gates nothing: each check lives in a test or in a step named for it.
    steps = WORKFLOW.read_text().split("- name:")[1:]
    gating = [step.splitlines()[0].strip() for step in steps
              if "reports only" in step.splitlines()[0] and "assert" in step]
    assert len(steps) > 3 and gating == []
