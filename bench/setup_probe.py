"""Set-up of one CLI run with no engine call, for the setup_s metric.

    python3 bench/setup_probe.py SCENARIO_JSON

Imports fluidlb.cli, parses the scenario and builds its service
distribution, as every verb does before its first engine call, then prints
where fluidlb was imported from.  bench/run.py times it from spawn to exit.
"""

import sys
from pathlib import Path

import fluidlb.cli
from fluidlb.scenario import parse_scenario


def main(path: str) -> int:
    scenario = parse_scenario(Path(path).read_text(encoding="utf-8"))
    scenario.service_distribution()
    print(fluidlb.cli.__file__)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
