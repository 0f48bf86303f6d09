"""Per-layer tracing of dlpcf from outside the package.

`Tracer.install` replaces each public function with a timing wrapper in
every module namespace where a caller looks the name up (a module that did
`from .index import entails` holds its own reference), and `uninstall`
puts the originals back.  Nothing inside `dlpcf` is edited.

Every wrapped call records a span: name, start, end, parent span and op id.
Spans stay in memory until the end of the run.  `index.eval_index` runs
2.8 million times per pass of `check-dbl`, so it gets only a call count
and a summed time; that time is still charged to the enclosing span,
so self times stay exact.  An evaluation inside `entails` is goal-side when
its term is one of the goal's terms (the same object).

Distinct `entails` queries are told apart by equality, binder names
included, as a memo keyed on the query would.  `index.fresh_name` draws
from a process-wide counter, so the names drift from one pass to the next
but the counts do not; determinism is checked on counts only.
"""

from __future__ import annotations

import json
import time

# (module, attribute, span name).  Several entries share a span name when
# the same function is reachable under several module attributes.
SPANNED = (
    ("index", "entails", "index.entails"),
    ("types", "entails", "index.entails"),
    ("types", "subtype", "types.subtype"),
    ("checker", "subtype", "types.subtype"),
    ("types", "well_defined", "types.well_defined"),
    ("checker", "well_defined", "types.well_defined"),
    ("checker", "load_derivation", "checker.load"),
    ("checker", "bind", "checker.bind"),
    ("checker", "check", "checker.check"),
    ("pcf", "parse_term", "pcf.parse"),
    ("pcf", "pcf_typecheck", "pcf.typecheck"),
    ("checker", "pcf_typecheck", "pcf.typecheck"),
    ("pcf", "wh_eval", "pcf.reducer"),
    ("machine", "run", "machine.run"),
    ("cli", "load_program", "cli.load_program"),
    ("cli", "eval_report", "cli.eval_report"),
    ("cli", "check_program", "cli.check_program"),
    ("cli", "soundness_rows", "cli.soundness_rows"),
    ("cli", "render_rows", "cli.render_rows"),
    ("cli", "render_check_report", "cli.render_check_report"),
)
COUNTED = (("index", "eval_index"), ("cli", "eval_index"))

# span record fields
NAME, START, END, PARENT, OP, CHILD = range(6)


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.saved: list[tuple] = []
        self.eval_calls = 0
        self.eval_s = 0.0
        self.eval_in_entails = 0
        self.eval_goal_side = 0
        self.goal_terms = None      # terms of the goal of the open entails
        self.queries: list[tuple] = []   # (ctx, goal) of every entails call
        self.machine_steps = 0
        self.max_config_size = 0
        self.reducer_steps = 0
        self.obligations = 0
        self.reducer_results: list[tuple] = []   # (value, steps) per call

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for mod, attr, name in SPANNED:
            self._patch(mod, attr,
                        self._wrap(name, getattr(self.modules[mod], attr)))
        for mod, attr in COUNTED:
            self._patch(mod, attr,
                        self._counted(getattr(self.modules[mod], attr)))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self.saved):
            setattr(module, attr, fn)
        self.saved.clear()

    def _patch(self, mod: str, attr: str, wrapper) -> None:
        module = self.modules[mod]
        self.saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = self._observer(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            if name == "index.entails":
                saved_goal = self.goal_terms
                self.goal_terms = _goal_terms(args[1])
                self.queries.append((args[0], args[1]))
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = end = clock()
                stack.pop()
                if stack:
                    spans[stack[-1]][CHILD] += end - rec[START]
                if name == "index.entails":
                    self.goal_terms = saved_goal
            if observe is not None:
                observe(result)
            return result

        return traced

    def _counted(self, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def counted(term, *args, **kwargs):
            start = clock()
            try:
                return fn(term, *args, **kwargs)
            finally:
                elapsed = clock() - start
                self.eval_calls += 1
                self.eval_s += elapsed
                if stack:
                    spans[stack[-1]][CHILD] += elapsed
                goal = self.goal_terms
                if goal is not None:
                    self.eval_in_entails += 1
                    if any(term is g for g in goal):
                        self.eval_goal_side += 1

        return counted

    def _observer(self, name: str):
        if name == "machine.run":
            def machine_run(result):
                self.machine_steps += result.steps
                self.max_config_size = max(self.max_config_size,
                                           result.max_config_size)
            return machine_run
        if name == "pcf.reducer":
            def reducer(result):
                self.reducer_steps += result[1]
                self.reducer_results.append(result)
            return reducer
        if name == "checker.check":
            def check(report):
                self.obligations += len(report.obligations)
            return check
        return None

    # -- summaries --------------------------------------------------------

    def layer_metrics(self) -> tuple[dict, dict]:
        """Per-layer numbers over everything traced so far, and the span
        count of each span name."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for rec in self.spans:
            name = rec[NAME]
            dur = rec[END] - rec[START]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + dur - rec[CHILD]

        def per(value, count, scale=1.0):
            return value / count * scale if count else 0.0

        return {
            "index.entails.calls": calls.get("index.entails", 0),
            "index.entails.distinct_pairs": len(set(self.queries)),
            "index.entails.contexts": len({c for c, _ in self.queries}),
            "index.entails.self_s": own.get("index.entails", 0.0),
            "index.eval.calls": self.eval_calls,
            "index.eval.s": self.eval_s,
            "index.eval.us_per_call": per(self.eval_s, self.eval_calls, 1e6),
            "index.eval.goal_share": per(self.eval_goal_side,
                                         self.eval_in_entails),
            "types.subtype.calls": calls.get("types.subtype", 0),
            "types.subtype.self_s": own.get("types.subtype", 0.0),
            "types.well_defined.calls": calls.get("types.well_defined", 0),
            "types.well_defined.self_s": own.get("types.well_defined", 0.0),
            "checker.load_s": total.get("checker.load", 0.0),
            "checker.bind_s": total.get("checker.bind", 0.0),
            "checker.check.self_s": own.get("checker.check", 0.0),
            "checker.obligations": self.obligations,
            "pcf.parse_s": total.get("pcf.parse", 0.0),
            "pcf.typecheck_s": total.get("pcf.typecheck", 0.0),
            "pcf.reducer.s": total.get("pcf.reducer", 0.0),
            "pcf.reducer.steps": self.reducer_steps,
            "pcf.reducer.us_per_step": per(total.get("pcf.reducer", 0.0),
                                           self.reducer_steps, 1e6),
            "machine.run.s": total.get("machine.run", 0.0),
            "machine.steps": self.machine_steps,
            "machine.us_per_step": per(total.get("machine.run", 0.0),
                                       self.machine_steps, 1e6),
            "machine.max_config_size": self.max_config_size,
            "cli.self_s": sum((v for k, v in own.items()
                               if k.startswith("cli.")), 0.0),
        }, calls

    def counts(self) -> dict:
        """Every machine-independent number, for the determinism check."""
        layers, calls = self.layer_metrics()
        out = {k: v for k, v in layers.items() if isinstance(v, int)}
        out["index.eval.goal_side"] = self.eval_goal_side
        out["index.eval.in_entails"] = self.eval_in_entails
        out.update({f"spans.{k}": v for k, v in sorted(calls.items())})
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "start": rec[START],
                    "end": rec[END], "parent": rec[PARENT], "op": rec[OP],
                    "self_s": rec[END] - rec[START] - rec[CHILD]}) + "\n")


def _goal_terms(goal) -> tuple:
    if hasattr(goal, "term"):
        return (goal.term,)
    return (goal.lhs, goal.rhs)
