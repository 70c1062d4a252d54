"""Import cost from ``python -X importtime`` output.

Each stderr line reads ``import time: <self us> | <cumulative us> | <name>``
with two spaces of indent per nesting level, printed when the import ends,
so a module's line follows the lines of everything it imported.
"""

import re

_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def parse(stderr):
    """Entries (name, depth, self_us, cumulative_us, parent index)."""
    entries, open_ = [], []
    for line in stderr.splitlines():
        m = _LINE.match(line)
        if m is None:
            continue
        depth = (len(m.group(3)) - 1) // 2
        idx = len(entries)
        entries.append([m.group(4), depth, int(m.group(1)), int(m.group(2)),
                        -1])
        # everything still open below this depth was imported by it
        while open_ and entries[open_[-1]][1] > depth:
            entries[open_.pop()][4] = idx
        open_.append(idx)
    return entries


def _pkg(name):
    return name.split(".")[0]


def breakdown(stderr):
    """import.* metrics in ms and the top five cumulative importers.

    numpy and scipy count the cumulative time of their outermost entries;
    freeconv counts the self time of its own modules; interpreter counts
    the top-level imports made before the first of those three packages
    (encodings, site and the like)."""
    entries = parse(stderr)
    ours = ("freeconv", "numpy", "scipy")
    out = {"numpy": 0, "scipy": 0, "freeconv": 0, "interpreter": 0}
    started = False
    for name, depth, self_us, cum_us, parent in entries:
        pkg = _pkg(name)
        started = started or pkg in ours
        if pkg in ("numpy", "scipy") and (
                parent < 0 or _pkg(entries[parent][0]) != pkg):
            out[pkg] += cum_us
        elif pkg == "freeconv":
            out["freeconv"] += self_us
        elif depth == 0 and not started:
            out["interpreter"] += cum_us
    top = sorted(entries, key=lambda e: -e[3])[:5]
    return ({f"import.{k}_ms": v / 1e3 for k, v in out.items()},
            [(e[0], round(e[3] / 1e3, 3)) for e in top])
