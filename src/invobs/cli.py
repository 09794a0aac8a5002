"""Command-line front end.

Subcommands: ``run`` executes a scenario file or preset, ``verify`` runs the
property suite, ``sweep`` runs a Monte Carlo sweep, ``preset`` lists or shows
the canned scenarios.  Exit codes: 0 success, 1 property failure, 2 input
error, 3 runtime abort.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import runner
from .scenario import (
    Scenario,
    ScenarioError,
    parse_scenario,
    preset,
    preset_description,
    preset_names,
    scenario_from_dict,
    scenario_to_dict,
)
from .simulate import SimulationAbort


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="invobs",
                                description="observer simulation and verification runner")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, out_required):
        src = sp.add_mutually_exclusive_group()
        src.add_argument("--scenario", help="path to a scenario JSON document")
        src.add_argument("--preset", help="name of a canned scenario")
        sp.add_argument("--out", required=out_required, help="output directory for artifacts")
        sp.add_argument("--seed", type=int, help="override the scenario seed")
        sp.add_argument("--quiet", action="store_true", help="suppress progress output")

    add_common(sub.add_parser("run", help="execute a scenario"), out_required=True)
    add_common(sub.add_parser("verify", help="run the property verification suite"),
               out_required=False)
    add_common(sub.add_parser("sweep", help="run a Monte Carlo sweep"), out_required=True)

    pp = sub.add_parser("preset", help="list or show canned scenarios")
    psub = pp.add_subparsers(dest="preset_command", required=True)
    psub.add_parser("list", help="list preset names")
    show = psub.add_parser("show", help="print a preset scenario as JSON")
    show.add_argument("name")
    return p


def _load_scenario(args) -> Scenario:
    if args.scenario:
        try:
            with open(args.scenario) as fh:
                text = fh.read()
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario file: {exc}") from exc
        sc = parse_scenario(text)
    elif args.preset:
        sc = preset(args.preset)
    elif args.command == "verify":
        sc = parse_scenario('{"instance": "so3-s2", "mode": "verify"}')
    else:
        raise ScenarioError("one of --scenario or --preset is required")
    if args.seed is not None:  # validated as if the document had it
        sc = scenario_from_dict(dict(scenario_to_dict(sc), seed=args.seed))
    return sc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "preset":
            if args.preset_command == "list":
                for name in preset_names():
                    print(f"{name}: {preset_description(name)}")
            else:
                print(json.dumps(scenario_to_dict(preset(args.name)), indent=2, sort_keys=True,
                                 allow_nan=False))
            return runner.EXIT_OK

        sc = _load_scenario(args)
        if args.command == "verify":
            # Parsed again as a verify document, which has no sweep settings.
            doc = {key: v for key, v in scenario_to_dict(sc).items() if key != "mc"}
            sc = scenario_from_dict(dict(doc, mode="verify"))
        elif args.command == "sweep":
            # Parsed again as a sweep document, so the sweep bounds apply.
            sc = scenario_from_dict(dict(scenario_to_dict(sc), mode="monte-carlo"))
        if args.command == "verify" and args.out is None:
            import tempfile
            with tempfile.TemporaryDirectory() as tmp:
                return runner.run(sc, tmp, quiet=args.quiet)
        return runner.run(sc, args.out, quiet=args.quiet)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return runner.EXIT_INPUT_ERROR
    except SimulationAbort as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return runner.EXIT_RUNTIME_ABORT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return runner.EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
