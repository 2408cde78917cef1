"""The handlers behind ``repro <command>``, one module per command.

:mod:`repro.cli` parses the command line without importing any of these;
it imports the one module that runs the parsed command (or its action), and
calls its ``run(args) -> int``.  Each module imports, at module level, what
its command calls, so a command loads only what it runs.
"""
