#!/bin/sh
# Check that a refactor leaves every simulated number as it was at
# another commit:
#   sh tools/same_numbers.sh <commit>
# Builds <commit> in a temporary clone, compares the --json of all 13
# experiments byte for byte, and diffs the simulated keys (e2e.sim_*,
# reg.*, layer.* except layer.gc.*) of bench/perf's four traced
# workloads at seed 1. Prints one line per comparison, and under a
# DIFFER line each moved key (experiments: the id, then the key, old ->
# new); exits 1 if any differs. The clone goes under $TMPDIR (default
# /tmp) and is removed at exit.
set -e
[ $# -eq 1 ] || { echo "usage: $0 <commit>" >&2; exit 2; }
here=$(cd "$(dirname "$0")/.." && pwd)
base=$(mktemp -d "${TMPDIR:-/tmp}/same-numbers.XXXXXX")
trap 'rm -rf "$base"' EXIT
export DUNE_CACHE=disabled
git clone -q "$here" "$base/parent"
git -C "$base/parent" checkout -q "$1"

# Builds the checkout in $1 and writes its outputs under $base/$2.
measure() {
  mkdir -p "$base/$2"
  (cd "$1" && dune build --root . --display quiet bench/main.exe bench/perf/perf.exe)
  "$1/_build/default/bench/main.exe" --no-bechamel --json "$base/$2/experiments.json" >/dev/null
  for w in fork_cow rpc_ool compile_paging netmem_norma; do
    # One workload at a time: each peaks at 50-75 MB of heap.
    "$1/_build/default/bench/perf/perf.exe" --workload $w --trace 1 --seed 1 2>/dev/null \
      | grep -E '^  "(e2e\.sim_|layer\.|reg\.)' | grep -v '"layer\.gc\.' >"$base/$2/$w.keys"
  done
}
measure "$base/parent" parent
measure "$here" change

# One "<id> <key> <value>" line per key of a --json file.
flatten() {
  awk '/^  "/ { split($0, f, "\""); id = f[2]; next }
       /^    "/ { split($0, f, "\""); v = $0; sub(/^[^:]*: /, "", v); sub(/,$/, "", v)
                  print id, f[2], v }' "$1"
}

status=0
if cmp -s "$base/parent/experiments.json" "$base/change/experiments.json"; then
  echo "experiments: same"
else
  flatten "$base/parent/experiments.json" >"$base/parent/experiments.keys"
  flatten "$base/change/experiments.json" >"$base/change/experiments.keys"
  # Moved, added and removed keys, in the change's order of experiments.
  awk 'NR == FNR { old[$1 " " $2] = $3; next }
       { k = $1 " " $2; seen[k] = 1
         if (!(k in old)) moved[$1] = moved[$1] "  " k ": (none) -> " $3 "\n"
         else if (old[k] != $3) moved[$1] = moved[$1] "  " k ": " old[k] " -> " $3 "\n"
         if (!($1 in order)) { order[$1] = ++n; ids[n] = $1 } }
       END { for (k in old) if (!(k in seen)) { split(k, f, " ")
               moved[f[1]] = moved[f[1]] "  " k ": " old[k] " -> (none)\n"
               if (!(f[1] in order)) { order[f[1]] = ++n; ids[n] = f[1] } }
             for (i = 1; i <= n; i++) if (ids[i] in moved) list = list (list == "" ? "" : ", ") ids[i]
             print "experiments: DIFFER (" list ")"
             for (i = 1; i <= n; i++) printf "%s", moved[ids[i]] }' \
    "$base/parent/experiments.keys" "$base/change/experiments.keys"
  status=1
fi
for w in fork_cow rpc_ool compile_paging netmem_norma; do
  n=$(wc -l <"$base/change/$w.keys")
  if diff "$base/parent/$w.keys" "$base/change/$w.keys" >"$base/$w.diff"; then
    echo "$w: same ($n keys)"
  else
    echo "$w: DIFFER ($(grep -c '^>' "$base/$w.diff") of $n keys)"; sed 's/^/  /' "$base/$w.diff"; status=1
  fi
done
exit $status
