#!/usr/bin/env bash
# Byte identity against another revision: runs this working tree's
# tests/determinism.sh on the code of a `git archive` of REV and on the code
# of this working tree, both from one scratch directory (warnings raised in
# a plugin name its path), then compares the two runs' output files and
# stderr files with `diff -r`.  The working tree's script is copied into the
# archive before it runs, so both sides run the same commands, and a run
# added to the script is compared with the code of REV:
#
#     bash tests/compare_parent.sh HEAD~1
#
# Prints how many files and stderr files each run wrote, and any difference.
# Exits 0 when both runs succeed and wrote the same files, byte for byte, 1
# when one fails or they differ, and 2 on a usage error.  The scratch directory comes from
# `mktemp -d` and is removed at exit.
set -eu
if [ $# -ne 1 ]; then
  echo "usage: $0 REV" >&2
  exit 2
fi
tree=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/rev"
git -C "$tree" archive "$1" | tar -x -C "$work/rev"
cp "$tree/tests/determinism.sh" "$work/rev/tests/determinism.sh"
cd "$work"
status=0
# a run that fails still leaves the files it wrote to compare
if ! bash rev/tests/determinism.sh rev-out > /dev/null; then
  echo "tests/determinism.sh failed at $1" >&2
  status=1
fi
if ! bash "$tree/tests/determinism.sh" tree-out > /dev/null; then
  echo "tests/determinism.sh failed in the working tree" >&2
  status=1
fi
for kind in files stderr; do
  echo "$kind: $(find rev-out/$kind -type f | wc -l) from $1," \
       "$(find tree-out/$kind -type f | wc -l) from the working tree"
  diff -r "rev-out/$kind" "tree-out/$kind" || status=1
done
if [ $status -eq 0 ]; then
  echo "identical"
fi
exit $status
