"""Line-at-a-time reference model of the DRAM cache (not collected).

One numpy-free implementation the simulator's tests compare
against: N-way LRU, which at ``ways=1`` is the direct-mapped cache.
"""


class ScalarAssocCache:
    """Line-at-a-time N-way LRU reference implementation."""

    def __init__(self, num_sets: int, ways: int, line: int):
        self.num_sets = num_sets
        self.ways = ways
        self.line = line
        self.reset()

    def reset(self):
        # per set: list of [tag, dirty, stamp]
        self.sets = [
            [[-1, False, 0] for _ in range(self.ways)]
            for _ in range(self.num_sets)
        ]
        self.tick = 0

    def _lines(self, addr: int, size: int) -> range:
        return range(addr // self.line, (addr + size - 1) // self.line + 1)

    def _entry(self, line: int):
        ways = self.sets[line % self.num_sets]
        return next((w for w in ways if w[0] == line), None)

    def access(self, addr: int, size: int, is_write: bool):
        hits = clean = dirty = 0
        for line in self._lines(addr, size):
            self.tick += 1
            entry = self._entry(line)
            if entry is not None:
                hits += 1
                entry[2] = self.tick
                if is_write:
                    entry[1] = True
                continue
            victim = min(
                self.sets[line % self.num_sets],
                key=lambda w: -1 if w[0] < 0 else w[2],
            )
            if victim[0] >= 0 and victim[1]:
                dirty += 1
            else:
                clean += 1
            victim[0] = line
            victim[1] = is_write
            victim[2] = self.tick
        return hits, clean, dirty

    def invalidate(self, addr: int, size: int) -> None:
        for line in self._lines(addr, size):
            entry = self._entry(line)
            if entry is not None:
                entry[0], entry[1] = -1, False

    def resident_fraction(self, addr: int, size: int) -> float:
        lines = self._lines(addr, size)
        return sum(self._entry(line) is not None for line in lines) / len(lines)

    def is_dirty(self, line: int) -> bool:
        entry = self._entry(line)
        return entry is not None and entry[1]

    def dirty_lines(self) -> int:
        return sum(way[1] for ways in self.sets for way in ways)
