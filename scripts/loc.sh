#!/usr/bin/env bash
# Line ledger: physical line counts of the module's Go sources, split into
# non-test and test files. The repository benchmark (perfbench/, a module
# of its own) and testdata/ fixtures are excluded. Run from anywhere:
#
#   ./scripts/loc.sh        # or: make loc
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
	find . -name '*.go' -not -path './perfbench/*' -not -path '*/testdata/*' "$@" -print0 |
		xargs -0 cat | wc -l | tr -d ' '
}

nontest=$(count -not -name '*_test.go')
tests=$(count -name '*_test.go')
printf 'non-test go lines: %s\n' "$nontest"
printf 'test go lines:     %s\n' "$tests"
