#!/usr/bin/env python3
"""Measure the Newton-Schulz output singular-value envelope over the fixed
seeded sweep and print the constants to freeze in lanton/lmo.py.

With --check, exit 1 when the measured constants, printed as %.6e, differ
from the pinned NS_SIGMA_ENVELOPE and NS_SPECTRAL_ENVELOPE.
"""

import argparse
import sys

from lanton.lmo import NS_SIGMA_ENVELOPE, NS_SPECTRAL_ENVELOPE, measure_ns_envelope


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the sweep reproduces the pinned constants")
    args = parser.parse_args(argv)
    env = measure_ns_envelope()
    print("sweep results:")
    for key, value in env.items():
        print(f"  {key} = {value:.6e}")
    print()
    print("pin in src/lanton/lmo.py:")
    print(f"NS_SIGMA_ENVELOPE = ({env['sigma_low']:.6e}, {env['sigma_high']:.6e})")
    print(f"NS_SPECTRAL_ENVELOPE = ({env['spectral_low']:.6e}, {env['spectral_high']:.6e})")
    if not args.check:
        return 0
    measured = [f"{env[k]:.6e}" for k in ("sigma_low", "sigma_high", "spectral_low", "spectral_high")]
    pinned = [f"{v:.6e}" for v in NS_SIGMA_ENVELOPE + NS_SPECTRAL_ENVELOPE]
    if measured != pinned:
        print(f"envelope differs from the pinned constants: measured {measured}, pinned {pinned}",
              file=sys.stderr)
        return 1
    print()
    print("the pinned constants are reproduced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
