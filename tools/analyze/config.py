"""Scope configuration for the pstream360 analyzer.

One place to answer "which files does invariant X govern?". Checks import
these rather than hard-coding paths, so widening a discipline (as PR 6 did
for determinism: fleet/obs -> fleet/obs/trace/sim) is a one-line diff here.
"""

from __future__ import annotations

# Directories the analyzer walks, relative to the repo root.
SOURCE_DIRS = ("src", "tests", "bench", "examples", "tools")
SOURCE_SUFFIXES = (".h", ".cpp")

# Paths never scanned: analyzer self-test fixtures deliberately contain one
# violation per check and must not trip the real run.
EXCLUDE_PATHS = ("tests/data",)

# All randomness flows through ps360::util::Rng; only its implementation may
# touch the underlying engines.
RNG_EXEMPT = ("src/util/rng.h", "src/util/rng.cpp")

# Deterministic subsystems: replayable simulations — bit-identical output
# across reruns, schemes, and PS360_THREADS. The fleet engine, the
# observability layer, the trace/fault synthesis layer, the server/CDN tier
# (Zipf catalog + edge cache, one instance per replication slot), and the
# simulation core are all inside the discipline (ROADMAP item 1 puts sharded
# event-loop code here next). src/sim covers the controller registry, the
# competitor schemes (competitors.cpp), and the tournament harness
# (tournament.cpp — compiled into ps360::fleet but living here), whose ranked
# report promises byte-identical JSON for any thread/shard count.
DETERMINISTIC_DIRS = ("src/fleet", "src/obs", "src/trace", "src/sim",
                      "src/server")

# Modules whose public entry points must validate inputs with
# PS360_CHECK / PS360_ASSERT (util/check.h): all of src/.
CONTRACT_DIR = "src"

# Public headers screened for raw-double unit-suffixed parameters: all of
# src/. Quantities crossing these APIs use util:: strong types (units.h).
UNITS_HEADER_DIR = "src"

# Unit-name suffixes that mark a raw double parameter as dimensioned.
# `\w*_s` intentionally also catches compound rates (bytes_per_s,
# deg_per_s): those are dimensioned too.
UNIT_SUFFIXES = ("s", "ms", "bps", "mbps", "j", "w", "deg", "rad")
