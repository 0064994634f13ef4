"""The banditbench benchmark harness; run it with ``python3 -m perfbench``."""
