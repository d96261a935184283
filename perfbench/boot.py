"""Traced one-shot CLI: ``python perfbench/boot.py SPANS REQ -- ARGS``
runs ``python -m repro ARGS`` in this fresh process with the span
wrappers installed, then pickles the spans to ``SPANS``.  ``REQ`` is
the request id stamped on every span."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Recorder  # noqa: E402


def main() -> int:
    out, request = sys.argv[1], int(sys.argv[2])
    args = sys.argv[sys.argv.index("--") + 1:]
    rec = Recorder()
    rec.request = request
    with rec.span("startup.import"):
        import repro.__main__
        from repro.typegraph import arena
        arena.kernel()
    import hooks
    counts = hooks.install(rec)
    hooks.wrap_json_output(rec, repro.__main__)
    sys.argv = ["repro"] + args
    code = 0
    try:
        with rec.span("cli.main"):
            code = repro.__main__.main(args)
    except SystemExit as exit_:
        code = exit_.code if isinstance(exit_.code, int) else 1
    finally:
        sys.stdout.flush()
        counts.update({"native." + k: v
                       for k, v in hooks.kernel_counters().items()})
        rec.counts = counts
        rec.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
