"""``python -m repro.obs``: validate trace JSONL files against the record
schema, or print the schema (:func:`repro.obs.events.main`)."""

import sys

from .events import main

sys.exit(main())
