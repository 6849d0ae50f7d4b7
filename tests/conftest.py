"""Shared test setup: the test modules import the tree-walking analysis
reference (``tree_reference``) that lives next to this file."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
