"""Study-level benchmark of the ABE reproduction.

Run it from the repository root::

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split; ``BENCHMARK.json`` at the repository root lists both.  The modules:

* :mod:`perfbench.run` -- the command: spawns the program process (and the
  set-up probes and the ``suite-warm`` store fill), prints the result;
* :mod:`perfbench.session` -- the program process: set-up, warm-up job,
  timed closed loop, traced cycle;
* :mod:`perfbench.workloads` -- seeded input documents, the job loop and the
  output checks of the four workloads;
* :mod:`perfbench.trace` -- span wrappers around the layers' entry points and
  the per-layer metrics derived from the spans;
* :mod:`perfbench.measure` -- percentiles, the pausable job clock, the
  host-speed reference and peak memory.

The self-tests live in ``perfbench/tests``.
"""
