"""Frozen reference implementations that the identity tests compare the
library's fast paths against.  They live with the tests, not in the
installed package."""
