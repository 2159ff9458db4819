"""quatca benchmark package: see README.md and run.py."""
