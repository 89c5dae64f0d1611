"""Deterministic delta-debugging of failing fuzz cases.

A raw counterexample is rarely the story — 40 ops where 2 matter.
:func:`shrink_case` runs classic ddmin over the op sequence (drop
chunks, halve the chunk size, repeat until single ops survive), then a
final operand-reduction pass (loop counts and step counts to 1, delays
to 0), re-evaluating after every candidate and keeping it only if the
*same* oracle still fires.  Everything is seed-deterministic: the
search order is a pure function of the case, so two shrinks of the
same counterexample produce byte-identical minimal cases.
"""

from repro.fuzz.harness import evaluate_case

#: Default cap on full differential evaluations during one shrink.
DEFAULT_BUDGET = 200

#: Operands worth reducing once the op list is minimal, with their
#: floor values.
_ARG_FLOORS = (("count", 1), ("steps", 1), ("delay_ns", 0),
               ("ns", 100), ("work_ns", 10))


class _Budget:
    def __init__(self, limit):
        self.limit = limit
        self.spent = 0

    def take(self):
        if self.spent >= self.limit:
            return False
        self.spent += 1
        return True


def _fails_same(case, oracle, budget):
    """Does this candidate still trip the oracle we are shrinking
    against?  Replay checking is skipped during the search (it doubles
    one machine run per probe); the final confirmation re-enables it."""
    if not budget.take():
        return False
    report = evaluate_case(case, replay_check=False)
    return oracle in report.violated_oracles()


def _ddmin(case, oracle, budget):
    ops = list(case.ops)
    chunk = max(1, len(ops) // 2)
    while True:
        index = 0
        shrunk_this_pass = False
        while index < len(ops) and len(ops) > 1:
            candidate_ops = ops[:index] + ops[index + chunk:]
            if not candidate_ops:
                index += chunk
                continue
            candidate = case.with_ops(candidate_ops)
            if _fails_same(candidate, oracle, budget):
                ops = candidate_ops
                shrunk_this_pass = True
            else:
                index += chunk
        if shrunk_this_pass:
            continue
        if chunk == 1:
            break
        chunk = max(1, chunk // 2)
    return case.with_ops(ops)


def _reduce_args(case, oracle, budget):
    ops = list(case.ops)
    for index, op in enumerate(ops):
        for name, floor in _ARG_FLOORS:
            current = op.arg(name)
            if current is None or current <= floor:
                continue
            candidate_ops = list(ops)
            candidate_ops[index] = op.replace_arg(name, floor)
            candidate = case.with_ops(candidate_ops)
            if _fails_same(candidate, oracle, budget):
                ops = candidate_ops
                op = ops[index]
    return case.with_ops(ops)


def shrink_case(case, oracle, budget=DEFAULT_BUDGET):
    """Minimise ``case`` against ``oracle``.

    Returns ``(shrunk_case, evaluations, reproducible)`` where
    ``reproducible`` is the final full re-evaluation (replay check
    included) still reporting the oracle — the property the corpus
    runner and ``make fuzz-smoke`` insist on before a case is worth
    committing.
    """
    tracker = _Budget(budget)
    best = _ddmin(case, oracle, tracker)
    best = _reduce_args(best, oracle, tracker)
    final = evaluate_case(best)
    reproducible = oracle in final.violated_oracles()
    shrunk = best.with_oracle(oracle).with_ops(
        best.ops,
        shrunk_from=len(case.ops),
        shrink_evals=tracker.spent,
    )
    return shrunk, tracker.spent, reproducible
