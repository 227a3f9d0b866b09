#!/usr/bin/env bash
# Tier-1 gate plus the server smoke test (which also scrapes the
# Prometheus /metrics exposition and executes the live fact-update
# walkthrough of examples/incremental_walkthrough.md), the query-lane
# smoke (magic-sets point queries on a dormant session, answer-cache
# warm-up, lookups on the served materialization once the session is
# hot, update invalidation and the ekg_query_* series over loopback
# HTTP), the
# restart-recovery smoke (kill + restart on the same --store-dir;
# explanations must be served again without re-running the chase), the
# scale-harness smoke (tiny-N generate -> serve -> CDC replay ->
# identity gate, with the ekg_loadgen_* series asserted), the engine
# bench smoke (writes BENCH_chase.json: admission and observability
# overhead, incremental maintenance vs cold re-chase, hash vs nested
# join core, query lane vs full chase, snapshot/restore vs cold chase;
# fails if incremental, join-engine, query-lane or restored state ever
# diverges), the join-engine identity smoke (all four bundled apps
# under the hash and nested engines must fingerprint identically), the
# engine's incremental and property
# suites once more under the nested reference engine (whose DRed keeps
# the full re-derivation pass the hash engine replaces with head-bound
# probes), and the documentation gate
# (doc-comment lint always; `dune build @doc` + HTML artifact when
# odoc is installed). Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

dune build
dune runtest
dune build @smoke
dune build @smoke-faults
dune build @smoke-query
dune build @smoke-recovery
dune build @smoke-scale
dune exec bench/main.exe -- chase-smoke

# join-engine identity: the columnar hash-join chase and the nested-loop
# escape hatch must produce byte-identical output (facts, provenance,
# explanations) on every bundled app — company control's recursive sum,
# the stress test's sums that are superseded and then summed again,
# close link's aggregation-free recursive join, and golden power's
# negation and negative constraint
for app in company-control stress-test close-link golden-power; do
  fp_hash="$(dune exec bin/profile.exe -- "$app" --join hash --fingerprint | sed -n 's/^fingerprint: //p')"
  fp_nested="$(dune exec bin/profile.exe -- "$app" --join nested --fingerprint | sed -n 's/^fingerprint: //p')"
  if [ -z "$fp_hash" ] || [ "$fp_hash" != "$fp_nested" ]; then
    echo "ci: $app: join-engine fingerprints diverge (hash=$fp_hash nested=$fp_nested)" >&2
    exit 1
  fi
  echo "ci: $app: join-engine identity ok ($fp_hash)"
done

# both re-derivation paths: the default run above took the hash
# engine's head-bound probes; the nested engine keeps the full pass,
# the oracle the probes are checked against
EKG_JOIN=nested dune exec test/test_engine.exe -- test incremental
EKG_JOIN=nested dune exec test/test_engine.exe -- test properties

# documentation: lint is unconditional; rendering needs odoc, which
# not every CI image carries — skip rendering gracefully when absent
bash scripts/doc_lint.sh
if command -v odoc >/dev/null 2>&1; then
  warnings="$(mktemp)"
  dune build @doc 2> >(tee "$warnings" >&2)
  if [ -s "$warnings" ]; then
    echo "ci: dune build @doc emitted warnings" >&2
    rm -f "$warnings"
    exit 1
  fi
  rm -f "$warnings"
  # publishable artifact (CI systems upload this directory)
  rm -rf _build/odoc-artifact
  cp -r _build/default/_doc/_html _build/odoc-artifact
  echo "ci: odoc HTML artifact at _build/odoc-artifact"
else
  echo "ci: odoc not installed; skipped @doc rendering (doc lint still enforced)"
fi

echo "ci: all green (build + tests + smoke/metrics + fault drills + restart recovery + scale replay + engine bench + join identity + nested re-derivation + docs)"
