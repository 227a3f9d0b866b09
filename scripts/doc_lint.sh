#!/usr/bin/env bash
# Documentation lint: every public interface under lib/ must open with
# an odoc module-level comment — `(**` as the first non-blank
# characters — so `dune build @doc` renders a synopsis for every module
# and new interfaces cannot land undocumented — that every metric name
# the prose docs mention exists in the code, that every code reference
# they make is defined, that every command-line flag they name is
# defined, and that the routes they name are the route table's (all
# four below).  Run from anywhere; exits non-zero listing
# offenders.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
interfaces=(lib/*/*.mli)
for f in "${interfaces[@]}"; do
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

# Every backticked code reference `Module.name` in the prose docs whose
# module has a file under lib/ must name something that module's .ml or
# .mli defines: a `let`, `and`, `val`, `type` or `external` binding, or
# a record field.  In a dotted path (`Ekg_obs.Metrics.noop`) the module
# is the last capitalized component.
declare -A verdict=()
while IFS=: read -r doc line ref; do
  mod="${ref%.*}" name="${ref##*.}"
  mod="${mod##*.}"
  if [ -z "${verdict[$ref]+set}" ]; then
    file="${mod,}"
    mapfile -t sources < <(find lib -name "$file.ml" -o -name "$file.mli")
    if [ "${#sources[@]}" -eq 0 ]; then
      verdict[$ref]=skip
    elif grep -qE \
      -e "(^|[^A-Za-z0-9_'.])(let|and|val|type|external)[[:space:]]+((rec|nonrec)[[:space:]]+)?('[a-z_]+[[:space:]]+|\([^)]*\)[[:space:]]+)?$name([^A-Za-z0-9_']|\$)" \
      -e "(^|[{;])[[:space:]]*(mutable[[:space:]]+)?$name[[:space:]]*:([^:=]|\$)" \
      "${sources[@]}"; then
      verdict[$ref]=ok
    else
      verdict[$ref]=stale
    fi
  fi
  if [ "${verdict[$ref]}" = stale ]; then
    echo "doc-lint: $doc:$line: \`$ref\` — $mod defines no $name" >&2
    fail=1
  fi
done < <(
  for doc in $docs; do
    grep -noE '`[^`]+`' "$doc" |
      awk -v doc="$doc" '{
        n = index($0, ":"); s = " " substr($0, n + 1)
        while (match(s, /[^A-Za-z0-9_.]([A-Z][A-Za-z0-9_]*\.)+[a-z_][A-Za-z0-9_]*/)) {
          print doc ":" substr($0, 1, n - 1) ":" substr(s, RSTART + 1, RLENGTH - 1)
          s = substr(s, RSTART + RLENGTH)
        }
      }'
  done
)
# Every backticked `--flag` in the prose docs must be defined by some
# cmdliner `info [ … ]` under bin/ or bench/; `--help` is cmdliner's
# own.
flags="$(
  grep -rhoE 'info[[:space:]]*\[[^]]*\]' bin bench --include='*.ml' |
    grep -oE '"[a-z0-9-]+"' | tr -d '"' | sort -u
)"
stale_flags="$(
  for doc in $docs; do
    { grep -noE '`[^`]+`' "$doc" || true; } |
      while IFS=: read -r line span; do
        for flag in $(grep -oE -- '(^|[^a-z0-9-])--[a-z][a-z0-9-]*' <<<"$span" | sed -E 's/^[^-]*--//'); do
          if [ "$flag" != help ] && ! grep -qxF "$flag" <<<"$flags"; then
            echo "$doc:$line: \`--$flag\`"
          fi
        done
      done
  done
)"
if [ -n "$stale_flags" ]; then
  sed -E 's/^/doc-lint: /; s/$/ — no info [ … ] under bin\/ or bench\/ defines it/' <<<"$stale_flags" >&2
  fail=1
fi

# Every route the docs name — a backticked `METHOD[ | METHOD] /v1/…` in
# the prose docs, or a line of the route list in router.mli's module
# doc — must be declared in router.ml's route table (a `*` in a
# documented path matches any segment text), and every declared route
# must be named, exactly, somewhere in README.md.
declared="$(sed -nE 's/^ *route (GET|POST|PUT|DELETE) "(\/v1\/[^"]*)".*/\1 \2/p' lib/server/router.ml)"
readme_routes=""
while IFS=: read -r doc line ref; do
  ref="$(sed -E 's/`//g; s/^ +//; s/ *\| */|/g; s/ +/ /g' <<<"$ref")"
  path="${ref#* }" methods="${ref%% *}"
  path="${path%%\?*}"
  for m in ${methods//|/ }; do
    [ "$doc" = README.md ] && readme_routes+="$m $path"$'\n'
    found=0
    while read -r d; do
      # shellcheck disable=SC2053 # the documented route is a glob
      if [[ "$d" == $m\ $path ]]; then found=1; break; fi
    done <<<"$declared"
    if [ "$found" -eq 0 ]; then
      echo "doc-lint: $doc:$line: \`$m $path\` — router.ml's route table declares no such route" >&2
      fail=1
    fi
  done
done < <(
  grep -noE '`(GET|POST|PUT|DELETE)( ?\| ?(GET|POST|PUT|DELETE))* /v1/[^` ]*`' $docs /dev/null
  awk '{print FILENAME ":" FNR ":" $0} /\*\)/ {exit}' lib/server/router.mli |
    grep -oE '^[^:]+:[0-9]+: *(GET|POST|PUT|DELETE)(\|(GET|POST|PUT|DELETE))* +/v1/[^ ]+'
)
while read -r d; do
  if ! grep -qxF "$d" <<<"$readme_routes"; then
    echo "doc-lint: \`$d\` is declared in router.ml's route table but README.md never names it" >&2
    fail=1
  fi
done <<<"$declared"

refs=0
for v in "${verdict[@]}"; do
  [ "$v" = skip ] || refs=$((refs + 1))
done

if [ "$fail" -ne 0 ]; then
  echo "doc-lint: failed" >&2
  exit 1
fi
echo "doc-lint: ok (${#interfaces[@]} interfaces documented, doc metric names defined, $refs code references defined, $(wc -l <<<"$flags" | tr -d ' ') flag names defined, $(wc -l <<<"$declared" | tr -d ' ') routes documented)"
