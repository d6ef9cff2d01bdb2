"""The library's one input-error class."""


class InputError(ValueError):
    """A value from a config key or an option that the library cannot use.

    The CLI's main() maps InputError and OSError to exit 1 (input error).
    Every other ValueError the library raises is a physics failure, exit 2.
    """
