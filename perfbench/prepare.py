"""Workload set-up: the riskctl calls a workload makes before its first op.

Run as a script (``python prepare.py <workload>``) it performs that
set-up in a fresh interpreter and prints ``ready``; the parent times
start to ``ready`` as ``setup_s``.  Its imports are kept to what the
set-up needs so that the benchmark's own modules are not counted.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def prepare(workload: str):
    """Return the workload's set-up state.

    mc builds the built-in model and its six reference chains; cli builds
    the built-in model its reference results come from; sweep only
    imports riskctl, because each of its ops parses its own document.
    """
    import riskctl

    if workload == "mc":
        model = riskctl.builtin_paper_model()
        return model, [riskctl.build_chain(p, model) for p in model.paths]
    if workload == "cli":
        return riskctl.builtin_paper_model()
    return None


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    prepare(sys.argv[1])
    print("ready", flush=True)
