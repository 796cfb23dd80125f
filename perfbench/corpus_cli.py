"""The `corpus-cli` workload: the command line over the committed corpus.

One round runs check, emit-isar and fmt on every ``corpus/*.apml``, search on
the two adder models and on each distinct tgmt architecture contract, and
simulate on the relay model.  Together the outputs cover every verdict class
(ok, violated, budget-exceeded, no-proof-at-bound, holds).  Each invocation
is a fresh ``python -m apml.cli`` process started from the repository root,
one at a time, so interpreter start and ``import apml.cli`` are part of
every sample.  The seed shuffles the invocation order of each round.
"""

import contextlib
import io
import os
import random
import statistics
import subprocess
import sys

from apml import cli

# Exit codes of every invocation at the commit that defined the benchmark.
EXPECTED = (
    (("check", "corpus/radder.apml"), 0, "contract sum: ok"),
    (("check", "corpus/radder_duration6.apml"), 0, None),
    (("check", "corpus/radder_merge1.apml"), 1, None),
    (("check", "corpus/radder_merge2.apml"), 1, None),
    (("check", "corpus/relay.apml"), 0, None),
    (("check", "corpus/tgmt.apml"), 1, None),
    (("emit-isar", "corpus/radder.apml"), 0, None),
    (("emit-isar", "corpus/radder_duration6.apml"), 0, None),
    (("emit-isar", "corpus/radder_merge1.apml"), 0, None),
    (("emit-isar", "corpus/radder_merge2.apml"), 0, None),
    (("emit-isar", "corpus/relay.apml"), 0, None),
    (("emit-isar", "corpus/tgmt.apml"), 0, None),
    (("fmt", "corpus/radder.apml"), 0, None),
    (("fmt", "corpus/radder_duration6.apml"), 0, None),
    (("fmt", "corpus/radder_merge1.apml"), 0, None),
    (("fmt", "corpus/radder_merge2.apml"), 0, None),
    (("fmt", "corpus/relay.apml"), 0, None),
    (("fmt", "corpus/tgmt.apml"), 0, None),
    (("search", "corpus/radder.apml"), 0, "s0: "),
    (("search", "corpus/radder_duration6.apml"), 1, "no-proof-at-bound"),
    (("search", "corpus/tgmt.apml",
      "--contract", "PSDAreClosedWhenTrainIsMoving"), 2, "budget-exceeded"),
    (("search", "corpus/tgmt.apml",
      "--contract", "PSDAreOpenIfNotMovingAndMatchingPosition"),
     2, "budget-exceeded"),
    (("search", "corpus/tgmt.apml",
      "--contract", "trainOpensTheDoorOnTheRightSide"), 0, "s0: "),
    (("search", "corpus/tgmt.apml",
      "--contract", "PSDAreClosedWhenTrainGivesClosedIndication"),
     2, "budget-exceeded"),
    (("simulate", "corpus/relay.apml", "--universe", "corpus/tiny.uni"),
     0, "contract relayed: holds"),
)

# Outputs compared byte for byte with committed goldens.
GOLDEN = {
    ("check", "corpus/tgmt.apml"): "corpus/tgmt_verdicts.txt",
    ("emit-isar", "corpus/radder.apml"): "tests/golden/rsum.thy",
}

OPS = {"check": "check", "emit-isar": "emit", "fmt": "fmt",
       "search": "search", "simulate": "simulate"}

MIN_INVOCATIONS = 100


class CorpusCli:
    """Set-up reads the goldens; a pass is one round of every invocation."""

    name = "corpus-cli"
    in_process = False               # call cli.main here, for the trace

    def __init__(self, seed, smoke=False, root="."):
        self.root = root
        self.rng = random.Random(seed)
        self.golden = {}
        for argv, path in GOLDEN.items():
            with open(os.path.join(root, path), encoding="utf-8") as fh:
                self.golden[argv] = fh.read()
        self.min_passes = 1 if smoke else -(-MIN_INVOCATIONS // len(EXPECTED))
        self.env = dict(os.environ)
        src = os.path.join(os.path.abspath(root), "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def provenance(self):
        return {"invocations_per_round": len(EXPECTED),
                "min_rounds": self.min_passes}

    def warm_up(self):
        """One untimed invocation, so the first sample pays no cold cache."""
        self._spawn(EXPECTED[0][0])

    def _spawn(self, argv):
        proc = subprocess.run([sys.executable, "-m", "apml.cli", *argv],
                              cwd=self.root, env=self.env,
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def _call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def run_pass(self, rec):
        """One round in shuffled order.  Each command counts with its mean
        over the round: the files differ in size, and the median of such a
        mixed set jumps from one file to another."""
        order = list(EXPECTED)
        self.rng.shuffle(order)
        samples = {}
        for argv, code, marker in order:
            rec.attempted += 1
            got, ms = rec.timed(self._call if self.in_process
                                else self._spawn, argv)
            samples.setdefault(OPS[argv[0]], []).append(ms)
            rec.case(ms)
            self._verify(rec, argv, code, marker, *got)
        for op, values in samples.items():
            rec.op(op, statistics.fmean(values))

    def _verify(self, rec, argv, code, marker, got_code, out, err):
        what = " ".join(argv)
        if got_code != code:
            rec.expect(False, "%s: exit %s, expected %d" % (what, got_code,
                                                            code))
            return
        golden = self.golden.get(argv[:2])
        if golden is not None:
            rec.expect(out == golden, "%s: output differs from golden" % what)
        elif marker is not None:
            rec.expect(out.startswith(marker) or err.startswith(marker),
                       "%s: output does not start with %r" % (what, marker))
