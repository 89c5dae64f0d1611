"""Host-speed calibration: fixed pure-Python work in a fresh interpreter.

``run.py`` times this script before and after every iteration and
scales the iteration's times by ``CALIBRATION_REF_S`` over the mean of
the two walls (see README.md).  It imports nothing from the program, so
a change to the program cannot move it.  Its work (an event heap, small
objects, dict updates, JSON) resembles the simulator's.  Changing it
changes every scaled time: treat that as a change of the benchmark.

Prints one number, the same on every run.
"""

import collections
import dataclasses
import heapq
import json
import random


@dataclasses.dataclass
class Event:
    time: int
    seq: int
    kind: str


def work(rounds: int = 40, events: int = 2000) -> int:
    rng = random.Random(1)
    fields = {f"field_{i}": i for i in range(200)}
    total = 0
    for _ in range(rounds):
        heap = []
        state = dict(fields)
        counts = collections.Counter()
        for i in range(events):
            heapq.heappush(heap, (rng.randrange(1 << 20), i,
                                  Event(i, i, f"k{i % 7}")))
        while heap:
            time, i, event = heapq.heappop(heap)
            key = f"field_{i % 200}"
            state[key] = (state[key] + time) & 0xFFFF
            counts[event.kind] += 1
        total += sum(state.values()) + len(json.dumps(counts))
    return total


if __name__ == "__main__":
    print(work())
