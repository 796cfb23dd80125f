"""Spans around the public functions of each apml module, from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``apml`` module that holds a reference to it (``cli`` imports some of them
by name), so calls through module globals and module attributes alike are
recorded.  A span is (name, start, end, parent index); spans stay in memory
until the run writes them out.  ``FiniteUniverse.eval_predicate`` is called
millions of times per simulation, so it is only counted.
"""

import contextlib
import sys
import time

from apml import checker, entailment, isar, oracle, parser, printer
from apml import model as m

TRACED = (
    (parser, "tokenize"),
    (parser, "parse_model"),
    (m, "validate_structure"),
    (checker, "check_model"),
    (checker, "check_step"),
    (entailment, "entails"),
    (entailment, "match_trigger"),
    (oracle, "search_proof"),
    (oracle, "verify_satisfaction"),
    (isar, "emit_theory"),
    (printer, "print_model"),
)


def _span_name(module, attr):
    return "%s.%s" % (module.__name__.rpartition(".")[2], attr)


class Tracer:
    def __init__(self):
        self.spans = []              # (name, start, end, parent index)
        self.counts = {"tokens": 0, "match_hits": 0, "search_facts": 0,
                       "eval_calls": 0}
        self.enabled = True
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if name == "parser.tokenize":
                counts["tokens"] += len(result[0])
            elif name == "entailment.match_trigger":
                counts["match_hits"] += bool(result)
            elif name == "oracle.search_proof":
                counts["search_facts"] += result.steps_explored
            return result

        return traced

    def install(self):
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "apml" or key.startswith("apml.")]
        for module, attr in TRACED:
            original = getattr(module, attr)
            wrapper = self._wrap(_span_name(module, attr), original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

        universe = oracle.FiniteUniverse
        original = universe.eval_predicate
        counts = self.counts

        def counted(self, *args):
            counts["eval_calls"] += 1
            return original(self, *args)

        universe.eval_predicate = counted
        self._restore.append((universe, "eval_predicate", original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    @contextlib.contextmanager
    def paused(self):
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def self_times(self):
        """name -> (calls, inclusive ms, self ms)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, incl, own = out.get(name, (0, 0.0, 0.0))
            dur = end - start
            out[name] = (calls + 1, incl + dur * 1000.0,
                         own + (dur - child[i]) * 1000.0)
        return out


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass (0 where a layer did no work)."""
    times = tracer.self_times()
    counts = tracer.counts

    def calls(name):
        return times.get(name, (0, 0.0, 0.0))[0]

    def own(*names):
        return sum(times.get(n, (0, 0.0, 0.0))[2] for n in names)

    lex = own("parser.tokenize")
    check = own("checker.check_model", "checker.check_step")
    steps = calls("checker.check_step")
    step_incl = times.get("checker.check_step", (0, 0.0, 0.0))[1]
    matches = calls("entailment.match_trigger")
    return {
        "parser.lex_ms": lex,
        "parser.parse_ms": own("parser.parse_model"),
        "parser.tokens": counts["tokens"],
        "parser.tokens_per_ms": counts["tokens"] / lex if lex else 0.0,
        "model.validate_ms": own("model.validate_structure"),
        "checker.check_ms": check,
        "checker.steps": steps,
        "checker.step_us": step_incl * 1000.0 / steps if steps else 0.0,
        "entailment.entails_calls": calls("entailment.entails"),
        "entailment.entails_ms": own("entailment.entails"),
        "entailment.match_calls": matches,
        "entailment.match_ms": own("entailment.match_trigger"),
        "entailment.match_hit_ratio": (counts["match_hits"] / matches
                                       if matches else 0.0),
        "oracle.search_ms": own("oracle.search_proof"),
        "oracle.search_facts": counts["search_facts"],
        "oracle.simulate_ms": own("oracle.verify_satisfaction"),
        "oracle.eval_calls": counts["eval_calls"],
        "isar.emit_ms": own("isar.emit_theory"),
        "printer.fmt_ms": own("printer.print_model"),
    }
