#!/bin/sh
# Run test executables under fresh QCheck seeds.
#
#   sh test/props.sh N EXE...
#
# Each of N rounds draws a seed and runs every EXE with QCHECK_SEED set
# to it. A failing run prints the line that reproduces it,
#   QCHECK_SEED=<seed> <exe>
# followed by the names of its failed cases. Exits 1 if any run failed.
# `dune runtest` pins one seed (test/dune) so tier-1 repeats; the
# `props` alias (`dune build @test/props`) runs this script for the
# random coverage. Every run also draws a fresh Hashtbl seed
# (OCAMLRUNPARAM=R), so no test may depend on hash order.
export OCAMLRUNPARAM="${OCAMLRUNPARAM:+$OCAMLRUNPARAM,}R"
n=$1
shift
status=0
i=0
while [ "$i" -lt "$n" ]; do
  seed=$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')
  for exe in "$@"; do
    case $exe in */*) ;; *) exe=./$exe ;; esac
    if ! out=$(QCHECK_SEED=$seed "$exe" 2>&1); then
      echo "QCHECK_SEED=$seed $exe"
      printf '%s\n' "$out" | grep -E '^[> ] \[FAIL\]'
      status=1
    fi
  done
  i=$((i + 1))
done
exit $status
