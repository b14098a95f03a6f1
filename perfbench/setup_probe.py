"""Set-up as a fresh process pays for it: start the interpreter, import the
package, build the shaped constellation (the ``shape_for_entropy`` root
search) and the phase grid, then print ``ready``.

Usage: python3 setup_probe.py <num_test_phases>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import wiener_cpe  # noqa: E402


def main() -> None:
    config = wiener_cpe.ExperimentConfig(
        order=64, target_entropy=5.75, num_test_phases=int(sys.argv[1])
    )
    constellation = wiener_cpe.build_constellation(config)
    wiener_cpe.make_grid(config.num_test_phases, constellation.sym_order)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
