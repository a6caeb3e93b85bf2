"""syncbench: the whole-sync benchmark (see syncbench/README.md)."""
