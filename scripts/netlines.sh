#!/bin/sh
# Reports the size change of the program proper: added, removed and net
# lines of non-test Go outside perfbench/, between <base-ref> and the
# working tree (git diff --numstat, plus untracked new files).
#
#   scripts/netlines.sh <base-ref>
set -eu

if [ "$#" -ne 1 ]; then
	echo "usage: $0 <base-ref>" >&2
	exit 2
fi
cd "$(dirname "$0")/.."

{
	git diff --numstat "$1" -- '*.go' ':(exclude)*_test.go' ':(exclude)perfbench/'
	git ls-files --others --exclude-standard -- '*.go' ':(exclude)*_test.go' ':(exclude)perfbench/' |
		while IFS= read -r f; do
			printf '%s\t0\t%s\n' "$(wc -l < "$f")" "$f"
		done
} | awk '{ add += $1; del += $2 } END { printf "added %d\nremoved %d\nnet %+d\n", add, del, add - del }'
