#!/usr/bin/env bash
# Documentation lint: every public interface of the reasoning,
# persistence and data-generation layers (lib/engine, lib/core,
# lib/store, lib/datagen) must open with an odoc module-level comment —
# `(**` as the first non-blank characters — so `dune build @doc` renders
# a synopsis for every module and new interfaces cannot land
# undocumented — and that every metric name the prose docs mention exists
# in the code (below).  Run from anywhere; exits non-zero listing
# offenders.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
for f in lib/engine/*.mli lib/core/*.mli lib/store/*.mli lib/datagen/*.mli; do
  # first non-blank line must start a doc comment
  first="$(awk 'NF {print; exit}' "$f")"
  case "$first" in
    "(**"*) ;;
    *)
      echo "doc-lint: $f lacks a module-level doc comment (must open with (** ...)" >&2
      fail=1
      ;;
  esac
done

# Every ekg_… token in the prose docs must name something that exists: a
# library (a dune `(name ekg_…)`) or a metric family defined under lib/
# or bin/ (its quoted name).  `ekg_query_*` is a prefix and is skipped;
# `ekg_lock_{wait,hold}_seconds` expands to its two names; a label set
# after a name (`…_total{rule,stratum}`) is not part of it.
known="$(
  {
    grep -rhoE '"ekg_[a-z0-9_]+"' lib bin --include='*.ml' | tr -d '"'
    find . -path ./_build -prune -o -name dune -print |
      xargs grep -hoE '\(name ekg_[a-z0-9_]+\)' | sed -E 's/^\(name (.*)\)$/\1/'
  } | sort -u
)"
docs="README.md ARCHITECTURE.md SCALING.md DESIGN.md"
for tok in $(grep -ohE 'ekg_[a-z0-9_]+(\*|\{[a-z0-9_,]+\}[a-z0-9_]*)?' $docs | sort -u); do
  case "$tok" in
    *'*') continue ;;
    *'_{'*)
      stem="${tok%%\{*}" rest="${tok#*\{}"
      IFS=, read -ra alts <<<"${rest%%\}*}"
      names=()
      for a in "${alts[@]}"; do names+=("$stem$a${rest#*\}}"); done
      ;;
    *'{'*) names=("${tok%%\{*}") ;;
    *) names=("$tok") ;;
  esac
  for n in "${names[@]}"; do
    if ! grep -qxF "$n" <<<"$known"; then
      echo "doc-lint: $n (in $docs) is neither a library nor a metric family defined under lib/ or bin/" >&2
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  echo "doc-lint: failed" >&2
  exit 1
fi
echo "doc-lint: ok ($(ls lib/engine/*.mli lib/core/*.mli lib/store/*.mli lib/datagen/*.mli | wc -l | tr -d ' ') interfaces documented, doc metric names defined)"
