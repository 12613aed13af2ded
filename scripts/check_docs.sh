#!/usr/bin/env bash
# Docs lint:
#   1. every bench binary must be documented — fails if a
#      bench/bench_*.cpp exists whose name (e.g. "bench_recovery") never
#      appears in EXPERIMENTS.md;
#   2. every registered metric must be documented — fails if a metric
#      name registered in src/ (counter("...") / gauge("...") /
#      histogram("...") — always string literals by convention, see
#      src/obs/metrics.h) never appears in docs/OBSERVABILITY.md;
#   3. every bench binary must have a section in docs/BENCHMARKS.md, and
#      every JSON field a bench emits (w.field("...") — string literals
#      by convention, see bench/bench_json.h) must be documented there;
#   4. every trace stage name (the to_string cases in src/obs/trace.h)
#      must appear in docs/OBSERVABILITY.md — the attribution tables are
#      unreadable when a stage label has no definition;
#   5. every knob has a caller — fails if a field of a struct named
#      *Config, *Options, *Policy or *Knobs in src/ is never assigned
#      (`.f =`, `->f =`, a designated `.f =`, or a nested `.f.x =`) in
#      src/, bench/, tests/, examples/ or perfbench/. A setting nothing
#      varies is a named constant, not a field.
# Run from anywhere.
set -euo pipefail

cd "$(dirname "$0")/.."

missing=0
for src in bench/bench_*.cpp; do
  name="$(basename "$src" .cpp)"
  if ! grep -q "$name" EXPERIMENTS.md; then
    echo "check_docs: $src has no matching section in EXPERIMENTS.md" >&2
    missing=1
  fi
done

for src in bench/bench_*.cpp; do
  name="$(basename "$src" .cpp)"
  if ! grep -q "$name" docs/BENCHMARKS.md; then
    echo "check_docs: $src has no matching section in docs/BENCHMARKS.md" >&2
    missing=1
  fi
done

# JSON fields the benches emit (string literals at the w.field sites,
# including the shared metadata/flush helpers in bench_json.h). Any field
# a --json file can contain must be documented in docs/BENCHMARKS.md.
fields="$(grep -rhoE 'field\("[^"]+"' bench/ \
  | sed -E 's/field\("([^"]+)".*/\1/' | sort -u)"
for f in $fields; do
  if ! grep -qF "\`$f\`" docs/BENCHMARKS.md; then
    echo "check_docs: JSON field '$f' is not documented in docs/BENCHMARKS.md" >&2
    missing=1
  fi
done

# Trace stage names (the to_string cases in src/obs/trace.h).
stages="$(grep -oE 'case Stage::[a-z_]+: return "[^"]+"' src/obs/trace.h \
  | sed -E 's/.*return "([^"]+)".*/\1/' | sort -u)"
for s in $stages; do
  if ! grep -qF "\`$s\`" docs/OBSERVABILITY.md; then
    echo "check_docs: trace stage '$s' is not documented in docs/OBSERVABILITY.md" >&2
    missing=1
  fi
done

# Registered metric names (string literals at the registration sites).
metrics="$(grep -rhoE '(counter|gauge|histogram)\("[^"]+"\)' src/ \
  | sed -E 's/.*\("([^"]+)"\).*/\1/' | sort -u)"
for m in $metrics; do
  if ! grep -qF "$m" docs/OBSERVABILITY.md; then
    echo "check_docs: metric '$m' is not documented in docs/OBSERVABILITY.md" >&2
    missing=1
  fi
done

# Every name /metrics exposes must be documented under its Prometheus
# spelling too: "papm_" + the registry name with every non-alphanumeric
# byte replaced by '_' (src/obs/export.cpp prometheus_name). A dashboard
# built against /metrics greps for these, not the registry names.
for m in $metrics; do
  p="papm_$(printf '%s' "$m" | sed -E 's/[^a-zA-Z0-9]/_/g')"
  if ! grep -qF "$p" docs/OBSERVABILITY.md; then
    echo "check_docs: /metrics name '$p' (registry name '$m') is not documented in docs/OBSERVABILITY.md" >&2
    missing=1
  fi
done

# Knob lint. Fields are matched by name: one assignment of `.seed =`
# anywhere covers every struct's `seed`. Exempt, with the reason:
#   the three listening/replication ports (OpenLoopConfig inherits
#   ClientConfig's) — addresses are deployment settings, set per machine,
#   even where every run here uses the default.
knob_exempt="ServerConfig::port
ClientConfig::port
ReplOptions::port"
knobs="$(find src -name '*.h' -o -name '*.cpp' | sort | xargs awk '
  /^[[:space:]]*struct [A-Za-z0-9_]*(Config|Options|Policy|Knobs)[[:space:]]*(:[^{]*)?\{/ {
    s = $0; sub(/^[[:space:]]*struct /, "", s); sub(/[^A-Za-z0-9_].*/, "", s)
    depth = 0
  }
  s != "" {
    code = $0; sub(/\/\/.*/, "", code)
    if (depth == 1 && code !~ /^[[:space:]]*(static|using|friend|enum|struct|class|})/) {
      decl = code; sub(/[[:space:]]*(=|\{|;|\[).*/, "", decl)
      if (decl !~ /[()]/ && decl ~ /[[:space:]*&][A-Za-z_][A-Za-z0-9_]*$/) {
        match(decl, /[A-Za-z_][A-Za-z0-9_]*$/)
        print FILENAME ":" s "::" substr(decl, RSTART)
      }
    }
    depth += gsub(/\{/, "{", code) - gsub(/\}/, "}", code)
    if (depth <= 0) s = ""
  }')"
assigned="$(grep -rhoE --include='*.h' --include='*.cpp' \
    '((\.|->)[A-Za-z_][A-Za-z0-9_]*)+[[:space:]]*=([^=]|$)' \
    src bench tests examples perfbench \
  | grep -oE '(\.|->)[A-Za-z_][A-Za-z0-9_]*' | sed -E 's/^(\.|->)//' \
  | sort -u)"
for k in $knobs; do
  # Here-strings, not pipes: under pipefail, grep -q exiting at the first
  # match would fail the pipeline with the writer's SIGPIPE.
  if grep -qxF "${k#*:}" <<<"$knob_exempt"; then continue; fi
  if ! grep -qxF "${k##*::}" <<<"$assigned"; then
    echo "check_docs: knob $k is never assigned (make it a named constant, or give it a caller)" >&2
    missing=1
  fi
done

if [ "$missing" -ne 0 ]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "check_docs: OK (all benches, JSON fields and metrics documented; every knob has a caller)"
