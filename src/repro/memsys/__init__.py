"""Memory system substrate: version caches, main memory, overflow, undo log."""

from repro.memsys.address import line_of, word_in_line, words_of_line
from repro.memsys.cache import ARCH_TASK_ID, CacheLine, CacheStats, VersionCache
from repro.memsys.mainmem import MainMemory
from repro.memsys.overflow import OverflowArea
from repro.memsys.undolog import LogEntry, UndoLog

__all__ = [
    "ARCH_TASK_ID",
    "CacheLine",
    "CacheStats",
    "LogEntry",
    "MainMemory",
    "OverflowArea",
    "UndoLog",
    "VersionCache",
    "line_of",
    "word_in_line",
    "words_of_line",
]
