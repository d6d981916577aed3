"""Exit 0 only if the `verify --format json` report on stdin holds at least
one item and every item's status is `pass`; a skip compared nothing.

    orbifold-voa verify jacobi --k 2 --format json | python3 .github/all_pass.py LABEL

Prints LABEL (if given) and the list of statuses, for the log."""

import json
import sys

statuses = [item["status"] for item in json.load(sys.stdin)["results"]]
print(*sys.argv[1:], statuses)
sys.exit(not statuses or any(status != "pass" for status in statuses))
