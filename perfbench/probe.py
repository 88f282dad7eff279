"""Set-up time of one ``eetsim`` invocation, in a fresh interpreter.

Usage: ``python3 probe.py <src dir> <eetsim argv...>``.  Times ``import
eetsim.cli``, argument parsing and the scenario build up to the moment the
CLI first calls into an engine module, then stops the invocation there.
Prints the seconds as JSON on stdout; exits 3 if no engine was reached.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# Modules the CLI uses before an engine starts; a call from eetsim.cli into a
# public function of any other eetsim module marks the engine start.
SETUP_MODULES = {"eetsim.cli", "eetsim.scenarios", "eetsim.model", "eetsim.errors", "eetsim.integrate"}


class EngineStarted(Exception):
    pass


def main(src: str, argv: list[str]) -> int:
    start = perf_counter()
    sys.path.insert(0, src)
    import eetsim.cli as cli

    def stop(*args, **kwargs):
        raise EngineStarted

    for name, obj in list(vars(cli).items()):
        module = getattr(obj, "__module__", None) or ""
        if (callable(obj) and not isinstance(obj, type) and not name.startswith("_")
                and module.startswith("eetsim.") and module not in SETUP_MODULES):
            setattr(cli, name, stop)
    try:
        cli.main(argv)
    except EngineStarted:
        print(json.dumps({"setup_s": perf_counter() - start}))
        return 0
    print("probe: the invocation finished without starting an engine", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
