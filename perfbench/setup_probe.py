"""Set-up of one benchmark process: import the CLI, build its parser, warm up.

Run as a script with the checkout root as its argument, it performs the
set-up in this fresh interpreter and prints the seconds it took, on the
speed-corrected clock of clock.py.  The benchmark starts several of these
and reports their median as `setup_s`.  Nothing the set-up itself needs is
imported before the timer starts.
"""

import os
import sys

# One tiny invocation per subcommand, so that first-call costs (argparse,
# json encoder set-up) are paid here and not inside the first timed job.
WARMUP = (
    ("test", "fermat", "2"),
    ("test", "pepin", "2"),
    ("test", "mersenne", "3"),
    ("table", "uv-exact", "--max", "2"),
    ("table", "uv-mod", "--modulus", "7", "--max", "2"),
    ("verify", "appendix", "--n", "2"),
    ("rank", "5"),
)


def setup(root):
    """Import `fermatlucas.cli` from `root/src`, build its parser, run WARMUP.

    Raises ImportError when the package cannot be imported from that source
    tree, so that a checkout without sources never measures another copy.
    """
    import contextlib
    import io

    src = os.path.abspath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import fermatlucas.cli as cli

    loaded_from = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    if loaded_from != src:
        raise ImportError(f"fermatlucas was imported from {loaded_from}, not {src}")
    cli.build_parser()
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in WARMUP:
            cli.main(list(argv))
    return cli


if __name__ == "__main__":
    from time import perf_counter

    import clock

    with clock.SpeedClock() as speed:
        t0 = perf_counter()
        setup(sys.argv[1])
        t1 = perf_counter()
    print(f"{speed.corrected(t0, t1):.9f}")
