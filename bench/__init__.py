"""Host-performance benchmark of the repro simulator; see README.md."""
