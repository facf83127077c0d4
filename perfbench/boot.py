"""Child-process entry point of the benchmark.

    python perfbench/boot.py cli <repro-tls arguments...>
    python perfbench/boot.py task <task name> <spec.json>

Run from the repository root. Puts ``src`` and this directory on the
import path, installs the span wrappers when ``PERFBENCH_SPANS`` names
an output file, then runs either the ``repro-tls`` command line (the
server) or one of the tasks in :mod:`tasks`.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv: list[str]) -> int:
    import spans

    spans.install_from_env()
    mode, *rest = argv
    if mode == "cli":
        from repro.analysis.cli import main as cli_main

        return cli_main(rest)
    if mode == "task":
        import tasks

        name, spec_path = rest
        return tasks.run_task(name, spec_path)
    raise SystemExit(f"unknown boot mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
