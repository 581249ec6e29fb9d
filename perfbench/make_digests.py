"""Regenerate ``digests.json``: the expected outputs the benchmark checks.

Estimation is deterministic, so every workload's outputs are stored as
short digests of the per-config power and energy (the fleet summary for
``fleet_day``).  Rerun this only for a deliberate change of results::

    python3 perfbench/make_digests.py            # full and smoke scales
    python3 perfbench/make_digests.py --scale smoke
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from support import NPROC, digest, pin_environment, require_checkout, result_digest, scratch_dir


def scale_digests(scale) -> dict:
    from workloads import FLEET_TRACE_SEEDS, PAPER_VARIANTS, fleet_inputs, paper_configs

    from repro import api
    from repro.experiments.figures import FIGURES, FigureSettings, run_figure

    paper = {}
    for variant in range(PAPER_VARIANTS):
        configs = paper_configs(variant, scale)
        results = api.run_configs(configs, workers=NPROC, cache=None,
                                  activity_cache=None, plan_cache=None)
        paper[str(variant)] = {
            config.label: result_digest(result) for config, result in zip(configs, results)
        }
    settings = FigureSettings.quick(workers=NPROC, **scale.figure_overrides)
    figures = {}
    for name in sorted(FIGURES):
        figure = run_figure(name, settings)
        figures[name] = [
            result_digest(result) for panel in figure.panels.values() for result in panel.results
        ]
    fleet = {}
    for variant in range(len(FLEET_TRACE_SEEDS)):
        trace, spec = fleet_inputs(variant, scale)
        fleet[str(variant)] = digest(api.simulate_fleet(trace, spec, workers=NPROC).summary())
    return {"paper_cold": paper, "figures_replay": figures, "fleet_day": fleet}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("full", "smoke"), action="append")
    args = parser.parse_args(argv)
    require_checkout()
    path = Path(__file__).with_name("digests.json")
    stored = json.loads(path.read_text()) if path.exists() else {}
    with scratch_dir() as scratch:
        pin_environment(scratch / "cache")
        from workloads import SCALES

        for name in args.scale or ["smoke", "full"]:
            for workload, values in scale_digests(SCALES[name]).items():
                stored.setdefault(workload, {})[name] = values
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
