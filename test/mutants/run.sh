#!/usr/bin/env bash
# Mutation checks.  Each patch in this directory breaks the program on
# purpose, in a way some test suites are there to catch; its "Suite:"
# lines name them (alcotest name regexes).  For every patch the runner
# extracts the committed tree (git archive HEAD) into a scratch
# directory, applies the patch, builds the test runner there and runs
# each named suite with the CI's property-test seed: every one must
# fail.  A mutant that a named suite passes has survived, and the run
# exits 1.
#
# A suite regex that matches no test also makes the runner exit 1, so
# it would count as a catch.  Each named suite is therefore first run on
# the unpatched tree, where it must pass and run at least one test;
# otherwise the run exits 2 before any patch is tried.
#
#   bash test/mutants/run.sh                    # every patch
#   bash test/mutants/run.sh some.patch ...     # the given ones
#
# `dune build @test/mutants/mutants` runs it too; it is not part of
# runtest.  The scratch copies live under $TMPDIR and are removed.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(git -C "$here" rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# started from a dune action, the nested builds are builds of their own
unset INSIDE_DUNE DUNE_ROOT DUNE_BUILD_DIR
export QCHECK_SEED=20260805

if [ $# -gt 0 ]; then
  patches=()
  for p in "$@"; do patches+=("$here/$(basename "$p")"); done
else
  patches=("$here"/*.patch)
fi

for patch in "${patches[@]}"; do
  if ! grep -q '^Suite: ' "$patch"; then
    echo "$(basename "$patch" .patch): names no suite" >&2
    exit 2
  fi
done

base="$work/base"
mkdir "$base"
git -C "$root" archive HEAD | tar -x -C "$base"
dune build --root "$base" --display quiet ./test/test_main.exe
for suite in $(sed -n 's/^Suite: //p' "${patches[@]}" | sort -u); do
  log="$work/base.log"
  if ! "$base/_build/default/test/test_main.exe" test "$suite" >"$log" 2>&1; then
    echo "$suite: fails on the unpatched tree" >&2
    tail -n 5 "$log" >&2
    exit 2
  fi
  ran=$(sed -n 's/.* \([0-9][0-9]*\) tests* run\..*/\1/p' "$log" | tail -n 1)
  if [ "${ran:-0}" -lt 1 ]; then
    echo "$suite: runs no test on the unpatched tree" >&2
    exit 2
  fi
done
rm -rf "$base"

survivors=0
for patch in "${patches[@]}"; do
  name=$(basename "$patch" .patch)
  suites=$(sed -n 's/^Suite: //p' "$patch")
  copy="$work/$name"
  mkdir "$copy"
  git -C "$root" archive HEAD | tar -x -C "$copy"
  patch --quiet -d "$copy" -p1 <"$patch"
  dune build --root "$copy" --display quiet ./test/test_main.exe
  for suite in $suites; do
    if "$copy/_build/default/test/test_main.exe" test "$suite" \
      >"$work/$name.log" 2>&1; then
      echo "$name: SURVIVED $suite"
      survivors=$((survivors + 1))
    else
      echo "$name: caught by $suite"
    fi
  done
  rm -rf "$copy"
done

if [ "$survivors" -gt 0 ]; then
  echo "$survivors mutant/suite pair(s) survived" >&2
  exit 1
fi
