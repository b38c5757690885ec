"""``python -m bench``: the host-performance benchmark (see README.md)."""

import sys
from pathlib import Path


def _use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError:
        sys.exit(f"bench: no repro package under {src}")
    if Path(repro.__file__).resolve().parent.parent != src:
        sys.exit(f"bench: repro imported from {repro.__file__}, not {src}")


if __name__ == "__main__":
    _use_checkout_sources()
    from bench.cli import main

    sys.exit(main())
