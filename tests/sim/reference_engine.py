"""Reference model of the engine's dispatch semantics.

One list of ``[time, post sequence, callback, args, cancelled]`` entries
kept sorted, so events fire by time and, at equal times, in the order
they were posted.  A cancel marks its entry; a dispatch skips marked
entries.  It offers only the surface ``test_engine_equivalence`` drives
and exists only as that test's oracle.
"""

import bisect
import math


class _Handle:
    def __init__(self, entry):
        self._entry = entry

    def cancel(self):
        self._entry[4] = True


class Simulator:
    def __init__(self):
        self.now = 0.0
        self._queue = []
        self._seq = 0
        self._stopped = False

    def schedule(self, delay, callback, *args):
        entry = [self.now + delay, self._seq, callback, args, False]
        self._seq += 1
        bisect.insort(self._queue, entry)  # sequences are unique: only the keys compare
        return _Handle(entry)

    def stop(self):
        self._stopped = True

    def pending_count(self):
        return sum(not entry[4] for entry in self._queue)

    def _walk(self, until):
        """Dispatch due events until one calls :meth:`stop`."""
        while self._queue and self._queue[0][0] <= until:
            when, _, callback, args, cancelled = self._queue.pop(0)
            if cancelled:
                continue
            self.now = when
            callback(*args)
            if self._stopped:
                return True
        return False

    def run(self, until=None):
        self._stopped = False
        self._walk(math.inf if until is None else until)
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def step(self):
        self._stopped = True
        return self._walk(math.inf)
