"""SVT005: unbounded while loops in repro.core."""

from repro.lint import BoundedLoopRule

from tests.lint.helpers import hits, lint_text


def lint_core(text):
    return lint_text(text, "repro.core.channel", BoundedLoopRule())


def test_bare_while_true_is_flagged():
    findings = lint_core(
        "def drain(ring):\n"
        "    while True:\n"
        "        ring.pop()\n"
    )
    assert hits(findings) == [("SVT005", 2)]


def test_budget_identifier_in_test_passes():
    findings = lint_core(
        "def drain(ring, budget):\n"
        "    while budget > 0:\n"
        "        budget -= 1\n"
        "        ring.pop()\n"
    )
    assert findings == []


def test_budget_identifier_in_body_passes():
    findings = lint_core(
        "def take(watchdog, take_one):\n"
        "    while True:\n"
        "        if watchdog.exhausted:\n"
        "            return None\n"
        "        take_one()\n"
    )
    assert findings == []


def test_deadline_and_timeout_count_as_bounds():
    for name in ("deadline", "timeout_ns", "max_events", "remaining",
                 "strikes", "retries"):
        findings = lint_core(
            f"def wait({name}, clock):\n"
            f"    while clock.now < {name}:\n"
            "        clock.advance(1)\n"
        )
        assert findings == [], name


def test_justified_suppression_is_accepted():
    findings = lint_core(
        "def take(ring):\n"
        "    # svtlint: disable=SVT005 — bounded: each iteration pops\n"
        "    # one entry; an empty ring raises ChannelError.\n"
        "    while True:\n"
        "        return ring.pop()\n"
    )
    assert findings == []


def test_justified_trailing_suppression_is_accepted():
    findings = lint_core(
        "def poll(flag):\n"
        "    while not flag.is_set():"
        "  # svtlint: disable=SVT005 — bounded: setter already ran\n"
        "        pass\n"
    )
    assert findings == []


def test_bare_suppression_is_itself_a_finding():
    findings = lint_core(
        "def drain(ring):\n"
        "    # svtlint: disable=SVT005\n"
        "    while True:\n"
        "        ring.pop()\n"
    )
    assert hits(findings) == [("SVT005", 3)]
    assert "without justification" in findings[0].message


def test_rule_is_scoped_to_repro_core():
    findings = lint_text(
        "def drain(ring):\n"
        "    while True:\n"
        "        ring.pop()\n",
        "repro.exp.runner",
        BoundedLoopRule(),
    )
    assert findings == []


def test_for_loops_are_not_flagged():
    findings = lint_core(
        "def drain(ring):\n"
        "    for item in ring:\n"
        "        item.pop()\n"
    )
    assert findings == []
